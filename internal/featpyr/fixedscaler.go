package featpyr

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/fixed"
	"repro/internal/hog"
)

// qfPool recycles the scratch of ScaleInto; the slice is only live for the
// duration of one call. Getting and putting the same pointer back keeps a
// warm call free of allocations.
var qfPool sync.Pool // holds *[]int64

func getQF(n int) *[]int64 {
	p, _ := qfPool.Get().(*[]int64)
	if p == nil {
		p = new([]int64)
	}
	if cap(*p) < n {
		*p = make([]int64, n)
	}
	*p = (*p)[:n]
	return p
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

	// nets holds the shift-add networks of every interpolation phase the
	// scaler has met, built once each: the hardware has one network per
	// phase, reused across rows, columns, levels and frames. Phases share
	// the networks of equal coefficients (coeffs), so at one WeightFrac
	// the cache holds at most 2^WeightFrac+1 networks. Concurrent
	// detectors may share one scaler.
	mu     sync.Mutex
	nets   map[phaseKey]phaseNets
	coeffs map[coeffKey]*fixed.ShiftAdd
}

// phaseKey is one interpolation phase: the quantized fractional offsets
// ax, ay of a sample, at the WeightFrac they were quantized with.
type phaseKey struct {
	frac   int
	ax, ay int64
}

// coeffKey is one quantized coefficient at one WeightFrac.
type coeffKey struct {
	frac int
	c    float64
}

// phaseNets holds the networks of the four bilinear weights of one phase
// and their hardware cost.
type phaseNets struct {
	w      [4]*fixed.ShiftAdd
	adders int
}

// phaseNets returns the networks of phase k, building them on first use.
func (s *FixedScaler) phaseNets(k phaseKey) phaseNets {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.nets[k]; ok {
		return p
	}
	if s.nets == nil {
		s.nets = make(map[phaseKey]phaseNets)
		s.coeffs = make(map[coeffKey]*fixed.ShiftAdd)
	}
	one := float64(int64(1) << uint(k.frac))
	ax, ay := float64(k.ax)/one, float64(k.ay)/one
	var p phaseNets
	for i, c := range [4]float64{(1 - ax) * (1 - ay), ax * (1 - ay), (1 - ax) * ay, ax * ay} {
		net := fixed.NewShiftAdd(c, k.frac)
		ck := coeffKey{k.frac, net.Coefficient()}
		if shared := s.coeffs[ck]; shared != nil {
			net = shared
		} else {
			s.coeffs[ck] = net
		}
		p.w[i] = net
	}
	p.adders = adderEstimate(p.w[0], p.w[1], p.w[2], p.w[3])
	s.nets[k] = p
	return p
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
	return out, &stats, nil
}

// ScaleInto is ScaleMapRatio writing into caller storage: dst must hold its
// target grid, BlocksX x BlocksY blocks of fm.BlockLen features (a map from
// Pyramid.Map, say), and every feature is overwritten.
func (s *FixedScaler) ScaleInto(dst, fm *hog.FeatureMap, rx, ry float64) (ScaleStats, error) {
	outBX, outBY := dst.BlocksX, dst.BlocksY
	if outBX < 1 || outBY < 1 || dst.BlockLen != fm.BlockLen || len(dst.Feat) != outBX*outBY*fm.BlockLen {
		return ScaleStats{}, fmt.Errorf("featpyr: target map %dx%d with %d features does not fit blocks of %d",
			outBX, outBY, len(dst.Feat), fm.BlockLen)
	}
	if rx <= 0 || ry <= 0 {
		return ScaleStats{}, fmt.Errorf("featpyr: non-positive sampling ratios %g, %g", rx, ry)
	}
	if err := s.FeatFmt.Validate(); err != nil {
		return ScaleStats{}, err
	}
	frac := s.WeightFrac
	if frac < 1 || frac > 30 {
		return ScaleStats{}, fmt.Errorf("featpyr: weight frac %d out of range", frac)
	}
	// Quantize the whole input map once (in hardware the features already
	// arrive in this format from the HOG normalizer). The same scratch
	// records each column's and each row's phase.
	sp := getQF(len(fm.Feat) + outBX + outBY)
	defer qfPool.Put(sp)
	scratch := *sp
	qf := scratch[:len(fm.Feat)]
	px, py := scratch[len(fm.Feat):len(fm.Feat)+outBX], scratch[len(fm.Feat)+outBX:]
	for i, v := range fm.Feat {
		qf[i] = s.FeatFmt.FromFloat(v)
	}
	stats := ScaleStats{OutputBlocks: outBX * outBY}

	n := fm.BlockLen
	one := float64(int64(1) << uint(frac))
	// phase splits a source coordinate into its cell and its offset in the
	// cell, quantized to frac bits.
	phase := func(f float64) (int, int64) {
		i := int(math.Floor(f))
		return i, int64(math.Floor((f-float64(i))*one + 0.5))
	}
	block := func(bx, by int) []int64 {
		bx = clampi(bx, 0, fm.BlocksX-1)
		by = clampi(by, 0, fm.BlocksY-1)
		i := (by*fm.BlocksX + bx) * n
		return qf[i : i+n]
	}

	for oy := 0; oy < outBY; oy++ {
		y0, qay := phase((float64(oy)+0.5)*ry - 0.5)
		py[oy] = qay
		for ox := 0; ox < outBX; ox++ {
			x0, qax := phase((float64(ox)+0.5)*rx - 0.5)
			px[ox] = qax
			p := s.phaseNets(phaseKey{frac, qax, qay})
			stats.MaxAdders = max(stats.MaxAdders, p.adders)
			nets := &p.w

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
	// Every column meets every row, so the distinct phase pairs are the
	// distinct column phases times the distinct row phases.
	slices.Sort(px)
	slices.Sort(py)
	stats.Phases = len(slices.Compact(px)) * len(slices.Compact(py))
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
