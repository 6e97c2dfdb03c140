package featpyr

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fixed"
	"repro/internal/hog"
)

// qfPool recycles the quantized-input scratch of ScaleMapRatio; the slice is
// only live for the duration of one call.
var qfPool sync.Pool // holds *[]int64

func getQF(n int) []int64 {
	if p, ok := qfPool.Get().(*[]int64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]int64, n)
}

// FixedScaler is a bit-accurate software model of the hardware's
// shift-and-add feature down-scaling module. Features are stored in the
// configured fixed-point format; each output block is a bilinear
// combination of four input blocks whose weights are quantized to WeightFrac
// fractional bits and applied through canonical-signed-digit shift-and-add
// networks — no multipliers, exactly as in the FPGA implementation
// ("Scaling modules are implemented by shift-and-add instead of multiplier",
// Section 5).
type FixedScaler struct {
	// FeatFmt is the storage format of feature words (default Q0.15, a
	// 16-bit word for features in [0, 1)).
	FeatFmt fixed.Format
	// WeightFrac is the fractional precision of the interpolation
	// coefficients (default 8 bits).
	WeightFrac int
}

// NewFixedScaler returns a scaler with the paper-plausible default widths:
// 16-bit features and 8-bit interpolation coefficients.
func NewFixedScaler() *FixedScaler {
	return &FixedScaler{FeatFmt: fixed.Q(0, 15), WeightFrac: 8}
}

// adderEstimate reports how many hardware adders one output sample costs:
// the shift-add networks for the four coefficients plus the 3-adder
// combination tree.
func adderEstimate(w00, w10, w01, w11 *fixed.ShiftAdd) int {
	return w00.Adders() + w10.Adders() + w01.Adders() + w11.Adders() + 3
}

// ScaleStats reports resource/accuracy bookkeeping for one ScaleMap call.
type ScaleStats struct {
	OutputBlocks int // number of blocks produced
	MaxAdders    int // widest shift-add network cost over all phases
	Phases       int // distinct interpolation phases encountered
}

// ScaleMap resamples fm to outBX x outBY using the fixed-point datapath.
// The returned map contains the dequantized fixed-point results, so it can
// be compared directly against the float scaler; stats describe the
// hardware cost.
func (s *FixedScaler) ScaleMap(fm *hog.FeatureMap, outBX, outBY int) (*hog.FeatureMap, *ScaleStats, error) {
	if outBX < 1 || outBY < 1 {
		return nil, nil, fmt.Errorf("featpyr: invalid target grid %dx%d", outBX, outBY)
	}
	return s.ScaleMapRatio(fm, outBX, outBY,
		float64(fm.BlocksX)/float64(outBX), float64(fm.BlocksY)/float64(outBY))
}

// ScaleMapRatio is ScaleMap with explicit source-per-target sampling ratios
// (see featpyr.ScaleMapRatio for when the grid ratio is not the content
// ratio).
func (s *FixedScaler) ScaleMapRatio(fm *hog.FeatureMap, outBX, outBY int, rx, ry float64) (*hog.FeatureMap, *ScaleStats, error) {
	if outBX < 1 || outBY < 1 {
		return nil, nil, fmt.Errorf("featpyr: invalid target grid %dx%d", outBX, outBY)
	}
	out := newMap(outBX, outBY, fm)
	stats, err := s.ScaleInto(out, fm, rx, ry)
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// ScaleInto is ScaleMapRatio writing into caller storage: dst must hold its
// target grid, BlocksX x BlocksY blocks of fm.BlockLen features (a map from
// Pyramid.Map, say), and every feature is overwritten.
func (s *FixedScaler) ScaleInto(dst, fm *hog.FeatureMap, rx, ry float64) (*ScaleStats, error) {
	outBX, outBY := dst.BlocksX, dst.BlocksY
	if outBX < 1 || outBY < 1 || dst.BlockLen != fm.BlockLen || len(dst.Feat) != outBX*outBY*fm.BlockLen {
		return nil, fmt.Errorf("featpyr: target map %dx%d with %d features does not fit blocks of %d",
			outBX, outBY, len(dst.Feat), fm.BlockLen)
	}
	if rx <= 0 || ry <= 0 {
		return nil, fmt.Errorf("featpyr: non-positive sampling ratios %g, %g", rx, ry)
	}
	if err := s.FeatFmt.Validate(); err != nil {
		return nil, err
	}
	if s.WeightFrac < 1 || s.WeightFrac > 30 {
		return nil, fmt.Errorf("featpyr: weight frac %d out of range", s.WeightFrac)
	}
	// Quantize the whole input map once (in hardware the features already
	// arrive in this format from the HOG normalizer).
	qf := getQF(len(fm.Feat))
	defer func() {
		buf := qf[:0]
		qfPool.Put(&buf)
	}()
	for i, v := range fm.Feat {
		qf[i] = s.FeatFmt.FromFloat(v)
	}
	stats := &ScaleStats{OutputBlocks: outBX * outBY}

	sx := rx
	sy := ry
	n := fm.BlockLen
	// Cache shift-add networks per quantized phase pair: the hardware has
	// one network per phase, reused across the row/column.
	type phaseKey struct{ ax, ay int64 }
	cache := map[phaseKey][4]*fixed.ShiftAdd{}
	one := int64(1) << uint(s.WeightFrac)

	block := func(bx, by int) []int64 {
		bx = clampi(bx, 0, fm.BlocksX-1)
		by = clampi(by, 0, fm.BlocksY-1)
		i := (by*fm.BlocksX + bx) * n
		return qf[i : i+n]
	}

	for oy := 0; oy < outBY; oy++ {
		fy := (float64(oy)+0.5)*sy - 0.5
		y0 := int(math.Floor(fy))
		qay := int64(math.Floor((fy-float64(y0))*float64(one) + 0.5))
		for ox := 0; ox < outBX; ox++ {
			fx := (float64(ox)+0.5)*sx - 0.5
			x0 := int(math.Floor(fx))
			qax := int64(math.Floor((fx-float64(x0))*float64(one) + 0.5))

			key := phaseKey{qax, qay}
			nets, ok := cache[key]
			if !ok {
				toF := func(q int64) float64 { return float64(q) / float64(one) }
				ax, ay := toF(qax), toF(qay)
				nets = [4]*fixed.ShiftAdd{
					fixed.NewShiftAdd((1-ax)*(1-ay), s.WeightFrac),
					fixed.NewShiftAdd(ax*(1-ay), s.WeightFrac),
					fixed.NewShiftAdd((1-ax)*ay, s.WeightFrac),
					fixed.NewShiftAdd(ax*ay, s.WeightFrac),
				}
				cache[key] = nets
				if a := adderEstimate(nets[0], nets[1], nets[2], nets[3]); a > stats.MaxAdders {
					stats.MaxAdders = a
				}
			}

			c00 := block(x0, y0)
			c10 := block(x0+1, y0)
			c01 := block(x0, y0+1)
			c11 := block(x0+1, y0+1)
			b := dst.Block(ox, oy)
			for k := 0; k < n; k++ {
				acc := nets[0].Apply(c00[k]) + nets[1].Apply(c10[k]) +
					nets[2].Apply(c01[k]) + nets[3].Apply(c11[k])
				b[k] = s.FeatFmt.ToFloat(s.FeatFmt.Sat(acc))
			}
		}
	}
	stats.Phases = len(cache)
	return stats, nil
}

// ScaleMapBy is the factor-based variant of ScaleMap.
func (s *FixedScaler) ScaleMapBy(fm *hog.FeatureMap, factor float64) (*hog.FeatureMap, *ScaleStats, error) {
	if factor <= 0 {
		return nil, nil, fmt.Errorf("featpyr: non-positive scale factor %g", factor)
	}
	outBX := int(math.Round(float64(fm.BlocksX) / factor))
	outBY := int(math.Round(float64(fm.BlocksY) / factor))
	if outBX < 1 || outBY < 1 {
		return nil, nil, fmt.Errorf("featpyr: factor %g shrinks %dx%d map away", factor, fm.BlocksX, fm.BlocksY)
	}
	return s.ScaleMap(fm, outBX, outBY)
}
