// Package featpyr implements the paper's central contribution: multi-scale
// detection by down-sampling the *normalized HOG feature map* instead of
// the input image. Re-running gradient and histogram extraction per scale
// (the conventional image pyramid) is the most expensive stage of the
// detection chain; resampling the feature map moves pyramid construction
// after feature extraction, where it costs a small fraction as much
// (Section 4 of the paper).
//
// Two scaler implementations are provided:
//
//   - the float bilinear scaler, used for the algorithmic analysis
//     (Table 1, Figure 4), and
//   - FixedScaler, a bit-accurate model of the hardware's shift-and-add
//     scaling modules (Section 5, Figure 6), which quantizes features and
//     interpolation coefficients to fixed point and multiplies using CSD
//     shift-add networks only.
package featpyr

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/hog"
	"repro/internal/obs"
	"repro/internal/par"
)

// newMap returns a caller-owned feature map of a bx x by grid with like's
// block length and HOG configuration.
func newMap(bx, by int, like *hog.FeatureMap) *hog.FeatureMap {
	return &hog.FeatureMap{
		BlocksX:  bx,
		BlocksY:  by,
		BlockLen: like.BlockLen,
		Feat:     make([]float64, bx*by*like.BlockLen),
		Cfg:      like.Cfg,
	}
}

// ScaleConfig controls feature-map resampling.
type ScaleConfig struct {
	// Nearest selects nearest-neighbour resampling instead of bilinear.
	Nearest bool
	// Renormalize re-applies the block normalization of the map's HOG
	// config after resampling. Interpolation of unit-norm blocks yields
	// slightly sub-unit norms; renormalization restores the invariant.
	// The paper's hardware does not renormalize (it would need another
	// divider stage), so the default is off.
	Renormalize bool
	// Lambda applies the Dollar et al. power-law channel correction: when
	// down-sampling by factor s, features are multiplied by s^-Lambda.
	// Zero (the paper's choice) disables the correction.
	Lambda float64
	// LevelTimer, if non-nil, receives the time of every resample: one
	// observation per ScaleMapRatio call and per level a Pyramid
	// resamples, the latter the sum of the level's row bands' times (so
	// with parallel bands, the work, not the wall time). Recording is
	// lock-free and allocation-free; nil disables it.
	LevelTimer *obs.Histogram
}

// ScaleMap resamples fm to an outBX x outBY block grid. Factors are implied
// by the dimension ratio; use ScaleMapBy for an explicit scale factor or
// ScaleMapRatio when the true content ratio differs from the integer grid
// ratio. The feature channel count and HOG configuration carry over
// unchanged.
func ScaleMap(fm *hog.FeatureMap, outBX, outBY int, cfg ScaleConfig) (*hog.FeatureMap, error) {
	if outBX < 1 || outBY < 1 {
		return nil, fmt.Errorf("featpyr: invalid target grid %dx%d", outBX, outBY)
	}
	return ScaleMapRatio(fm, outBX, outBY,
		float64(fm.BlocksX)/float64(outBX), float64(fm.BlocksY)/float64(outBY), cfg)
}

// ScaleMapRatio resamples fm to an outBX x outBY grid with explicit
// source-per-target sampling ratios. This matters when the source content
// extends past the integer cell grid: a 70-pixel-wide window has 8 whole
// cells but 70/8 = 8.75 cells of content, so mapping it onto an 8-block
// target needs rx = 8.75/8, not the identity the grid dimensions imply.
// Source samples beyond the grid clamp to the border (those pixels were
// dropped during cell binning).
func ScaleMapRatio(fm *hog.FeatureMap, outBX, outBY int, rx, ry float64, cfg ScaleConfig) (*hog.FeatureMap, error) {
	if outBX < 1 || outBY < 1 {
		return nil, fmt.Errorf("featpyr: invalid target grid %dx%d", outBX, outBY)
	}
	if rx <= 0 || ry <= 0 {
		return nil, fmt.Errorf("featpyr: non-positive sampling ratios %g, %g", rx, ry)
	}
	t0 := time.Now()
	out := newMap(outBX, outBY, fm)
	resampleRows(out, fm, newTaps(outBX, fm, rx), rx, ry, cfg, 0, outBY)
	cfg.LevelTimer.Observe(time.Since(t0))
	return out, nil
}

// rowKernel selects the AVX2 bilinear row kernel in resampleRows. It
// starts on when the CPU and OS support it (haveRowKernel) and is only
// ever switched by tests pinning both paths; the features are
// bit-identical either way.
var rowKernel atomic.Bool

func init() { rowKernel.Store(haveRowKernel) }

// ResampleKernel reports whether bilinear resampling runs the vector row
// kernel.
func ResampleKernel() bool { return rowKernel.Load() }

// SetResampleKernel turns the vector row kernel on or off and returns the
// previous setting. It stays off on a CPU without the kernel. It exists so
// tests can pin the scalar path bit for bit; it changes speed, never a
// feature.
func SetResampleKernel(on bool) (prev bool) {
	return rowKernel.Swap(on && haveRowKernel)
}

// xTap is the horizontal half of one output block column's bilinear
// sample, the same on every output row: the element offsets, within a
// source block row, of its left and right source blocks (clamped to the
// map), and the weights ax and 1-ax. The row kernel reads it as four
// words; its layout is fixed by resample_amd64.s.
type xTap struct {
	off0, off1 int
	ax, omx    float64
}

// fillTaps writes the column taps of resampling src with source-per-target
// ratio rx into taps, one per output block column, with the expressions
// resampleRows' scalar loop evaluates per block.
func fillTaps(taps []xTap, src *hog.FeatureMap, rx float64) {
	for ox := range taps {
		fx := (float64(ox)+0.5)*rx - 0.5
		x0 := int(math.Floor(fx))
		ax := fx - float64(x0)
		taps[ox] = xTap{
			off0: clampi(x0, 0, src.BlocksX-1) * src.BlockLen,
			off1: clampi(x0+1, 0, src.BlocksX-1) * src.BlockLen,
			ax:   ax,
			omx:  1 - ax,
		}
	}
}

// newTaps returns the column taps of resampling src into a bx-wide map.
func newTaps(bx int, src *hog.FeatureMap, rx float64) []xTap {
	taps := make([]xTap, bx)
	fillTaps(taps, src, rx)
	return taps
}

// resampleRows writes output block rows [oy0, oy1) of dst by resampling src
// with source-per-target ratios rx, ry (see ScaleMapRatio), applying the
// Lambda gain and Renormalize of cfg per block. dst must already hold its
// grid: BlocksX x BlocksY blocks of src.BlockLen features, and taps must be
// fillTaps' columns for it. Each output block depends on src alone, so any
// partition of the rows produces the bits of one whole-map call; it is the
// kernel every float scaler path runs, serially or as a row band of a
// parallel build.
//
// With the row kernel on, a bilinear output row is one bilinearRow call:
// the column terms come from taps, the row terms are computed once per
// row, and every feature gets the scalar loop's operations in its order,
// so the bits do not depend on the kernel. Nearest and Renormalize's
// reduction stay scalar.
func resampleRows(dst, src *hog.FeatureMap, taps []xTap, rx, ry float64, cfg ScaleConfig, oy0, oy1 int) {
	n := src.BlockLen
	gain := 1.0
	if cfg.Lambda != 0 {
		gain = math.Pow(math.Sqrt(rx*ry), -cfg.Lambda)
	}
	if !cfg.Nearest && rowKernel.Load() {
		taps = taps[:dst.BlocksX]
		rowLen, outLen := src.BlocksX*n, dst.BlocksX*n
		for oy := oy0; oy < oy1; oy++ {
			fy := (float64(oy)+0.5)*ry - 0.5
			y0 := int(math.Floor(fy))
			ay := fy - float64(y0)
			r0 := src.Feat[clampi(y0, 0, src.BlocksY-1)*rowLen:][:rowLen]
			r1 := src.Feat[clampi(y0+1, 0, src.BlocksY-1)*rowLen:][:rowLen]
			out := dst.Feat[oy*outLen : (oy+1)*outLen]
			bilinearRow(&out[0], &r0[0], &r1[0], &taps[0], dst.BlocksX, n, ay, 1-ay, gain, cfg.Lambda != 0)
			if cfg.Renormalize {
				for b := 0; b < outLen; b += n {
					renormalize(out[b:b+n], src.Cfg.Epsilon)
				}
			}
		}
		return
	}
	for oy := oy0; oy < oy1; oy++ {
		fy := (float64(oy)+0.5)*ry - 0.5
		for ox := 0; ox < dst.BlocksX; ox++ {
			fx := (float64(ox)+0.5)*rx - 0.5
			out := dst.Block(ox, oy)
			if cfg.Nearest {
				bx := clampi(int(math.Round(fx)), 0, src.BlocksX-1)
				by := clampi(int(math.Round(fy)), 0, src.BlocksY-1)
				copy(out, src.Block(bx, by))
			} else {
				x0 := int(math.Floor(fx))
				y0 := int(math.Floor(fy))
				ax := fx - float64(x0)
				ay := fy - float64(y0)
				c00 := src.Block(clampi(x0, 0, src.BlocksX-1), clampi(y0, 0, src.BlocksY-1))
				c10 := src.Block(clampi(x0+1, 0, src.BlocksX-1), clampi(y0, 0, src.BlocksY-1))
				c01 := src.Block(clampi(x0, 0, src.BlocksX-1), clampi(y0+1, 0, src.BlocksY-1))
				c11 := src.Block(clampi(x0+1, 0, src.BlocksX-1), clampi(y0+1, 0, src.BlocksY-1))
				w00 := (1 - ax) * (1 - ay)
				w10 := ax * (1 - ay)
				w01 := (1 - ax) * ay
				w11 := ax * ay
				for k := 0; k < n; k++ {
					out[k] = w00*c00[k] + w10*c10[k] + w01*c01[k] + w11*c11[k]
				}
			}
			if cfg.Lambda != 0 {
				for k := range out {
					out[k] *= gain
				}
			}
			if cfg.Renormalize {
				renormalize(out, src.Cfg.Epsilon)
			}
		}
	}
}

// ScaleMapBy resamples fm by the given scale factor: factor > 1 shrinks the
// map by that factor (detecting objects factor times larger than the
// training window), mirroring image down-sampling by the same factor.
func ScaleMapBy(fm *hog.FeatureMap, factor float64, cfg ScaleConfig) (*hog.FeatureMap, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("featpyr: non-positive scale factor %g", factor)
	}
	outBX := int(math.Round(float64(fm.BlocksX) / factor))
	outBY := int(math.Round(float64(fm.BlocksY) / factor))
	if outBX < 1 || outBY < 1 {
		return nil, fmt.Errorf("featpyr: factor %g shrinks %dx%d map away", factor, fm.BlocksX, fm.BlocksY)
	}
	return ScaleMap(fm, outBX, outBY, cfg)
}

// renormalize re-applies L2 normalization to one block in place (the
// Renormalize option), with the map's configured epsilon.
func renormalize(b []float64, eps float64) {
	if eps <= 0 {
		eps = 1e-3
	}
	var ss float64
	for _, v := range b {
		ss += v * v
	}
	inv := 1 / math.Sqrt(ss+eps*eps)
	for i := range b {
		b[i] *= inv
	}
}

func clampi(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Level is one scale of a feature pyramid.
type Level struct {
	// Scale is the detection scale of this level relative to the base map:
	// a window matched at Scale s corresponds to an object s times larger
	// than the training window in the original image.
	Scale float64
	Map   *hog.FeatureMap
}

// Pyramid is a HOG feature pyramid: level 0 is the base feature map at the
// native scale, later levels are progressively down-sampled feature maps.
//
// A Pyramid owns the storage of the maps it resamples — map headers and one
// feature slab — and reuses it on every rebuild, like the hardware's scaler
// chain writing into fixed buffers: once a pyramid of a given geometry has
// been built, rebuilding it allocates nothing. Level 0 is the caller's base
// map itself, not a copy. The maps of a build, and those handed out by Map
// and Scale, stay valid until the next build or Reserve. The
// zero value is ready to use; a Pyramid serves one frame at a time.
type Pyramid struct {
	Levels []Level

	slab  []float64
	used  int // slab elements handed out since the last reset
	need  int // elements requested since the last reset
	maps  []hog.FeatureMap
	nmaps int

	// Column taps of the levels' resamples, carved like the slab: tused
	// handed out and tneed requested since the last reset.
	taps         []xTap
	tused, tneed int

	// Resampling fan-out: the row bands of the current call, the scale
	// config they run with, per-level shard time, and the par.Do job,
	// bound once because a method value built per call would allocate.
	bands []band
	cfg   ScaleConfig
	ns    []atomic.Int64
	job   func(int) error
}

// band is one resampling job: output rows [oy0, oy1) of dst, drawn from src.
// slot indexes the per-level shard-time accumulator.
type band struct {
	dst, src *hog.FeatureMap
	taps     []xTap
	rx, ry   float64
	oy0, oy1 int
	slot     int
}

// bandRows is the height of one resampling job in output block rows: about
// 0.1 ms of work on a 1080p level, small enough to balance the workers and
// large enough that dispatch costs nothing.
const bandRows = 8

// Reserve drops every level and map of the previous build, recycling
// their storage, which grows to what the previous build asked for, so a
// geometry seen once is served from it from then on. It also grows the
// storage to at least maps map headers of features features in all and
// the resampling tables to at least columns output block columns (the sum
// of BlocksX over the maps Scale will resample), so that such maps are
// carved and resampled without allocating, on the first frame of a
// geometry too.
func (p *Pyramid) Reserve(maps, features, columns int) {
	p.reset(features, columns)
	if maps > len(p.maps) {
		p.maps = make([]hog.FeatureMap, maps)
	}
}

// reset is Reserve of no map headers: it grows the slab to at least
// features elements and the tap store to at least columns taps.
func (p *Pyramid) reset(features, columns int) {
	if n := max(p.need, features); n > len(p.slab) {
		p.slab = make([]float64, n)
	}
	if n := max(p.tneed, columns); n > len(p.taps) {
		p.taps = make([]xTap, n)
	}
	p.used, p.need, p.nmaps = 0, 0, 0
	p.tused, p.tneed = 0, 0
	p.Levels = p.Levels[:0]
}

// Map returns a bx x by map with like's block length and HOG configuration,
// carved from the pyramid's storage; its features are stale and must all be
// written. It stays valid until the next build or Reserve.
func (p *Pyramid) Map(bx, by int, like *hog.FeatureMap) *hog.FeatureMap {
	feat := carve(p.slab, &p.used, &p.need, bx*by*like.BlockLen)
	if p.nmaps == len(p.maps) {
		// Headers handed out this frame stay in the old array; from the
		// next reset on, the larger one serves them all.
		p.maps = make([]hog.FeatureMap, 2*len(p.maps)+8)
		p.nmaps = 0
	}
	m := &p.maps[p.nmaps]
	p.nmaps++
	*m = hog.FeatureMap{BlocksX: bx, BlocksY: by, BlockLen: like.BlockLen, Feat: feat, Cfg: like.Cfg}
	return m
}

// carve hands out the next n elements of store, *used of which are handed
// out already, and adds n to *need. Past the end of store it allocates
// instead; the next reset grows store to *need, so a geometry seen once is
// served from it from then on.
func carve[T any](store []T, used, need *int, n int) []T {
	*need += n
	if *used+n > len(store) {
		return make([]T, n)
	}
	s := store[*used : *used+n : *used+n]
	*used += n
	return s
}

// Scale resamples src to an outBX x outBY map carved from the pyramid's
// storage (see Map), with explicit source-per-target ratios as in
// ScaleMapRatio and bit-identical to it. The rows are spread over up to
// workers goroutines; cfg.LevelTimer gets one observation, the sum of the
// row bands' times.
func (p *Pyramid) Scale(ctx context.Context, src *hog.FeatureMap, outBX, outBY int, rx, ry float64, cfg ScaleConfig, workers int) (*hog.FeatureMap, error) {
	if outBX < 1 || outBY < 1 {
		return nil, fmt.Errorf("featpyr: invalid target grid %dx%d", outBX, outBY)
	}
	if rx <= 0 || ry <= 0 {
		return nil, fmt.Errorf("featpyr: non-positive sampling ratios %g, %g", rx, ry)
	}
	m := p.Map(outBX, outBY, src)
	p.bands = p.bands[:0]
	p.addBands(m, src, rx, ry, 0)
	if err := p.resample(ctx, cfg, 1, workers); err != nil {
		return nil, err
	}
	return m, nil
}

// addBands queues the row bands of resampling src into dst, with the
// column taps they share carved from the pyramid's tap store.
func (p *Pyramid) addBands(dst, src *hog.FeatureMap, rx, ry float64, slot int) {
	taps := carve(p.taps, &p.tused, &p.tneed, dst.BlocksX)
	fillTaps(taps, src, rx)
	p.bands = slices.Grow(p.bands, (dst.BlocksY+bandRows-1)/bandRows)
	for oy := 0; oy < dst.BlocksY; oy += bandRows {
		p.bands = append(p.bands, band{dst: dst, src: src, taps: taps, rx: rx, ry: ry,
			oy0: oy, oy1: min(oy+bandRows, dst.BlocksY), slot: slot})
	}
}

// resample runs the queued bands, whose slots lie in [0, levels), on up to
// workers goroutines and then records each level's summed band time.
func (p *Pyramid) resample(ctx context.Context, cfg ScaleConfig, levels, workers int) error {
	if p.job == nil {
		p.job = p.runBand
	}
	if len(p.ns) < levels {
		p.ns = make([]atomic.Int64, levels)
	}
	for i := range p.ns[:levels] {
		p.ns[i].Store(0)
	}
	p.cfg = cfg
	if err := par.Do(ctx, len(p.bands), workers, p.job); err != nil {
		return err
	}
	for i := range p.ns[:levels] {
		cfg.LevelTimer.Observe(time.Duration(p.ns[i].Load()))
	}
	return nil
}

func (p *Pyramid) runBand(i int) error {
	b := &p.bands[i]
	t0 := time.Now()
	resampleRows(b.dst, b.src, b.taps, b.rx, b.ry, p.cfg, b.oy0, b.oy1)
	p.ns[b.slot].Add(int64(time.Since(t0)))
	return nil
}

// Build rebuilds p as the pyramid of base. Each level i holds the base map
// down-sampled by step^i. Construction stops when a level would be smaller
// than minBX x minBY blocks (the window size) or after maxLevels levels (0
// means unlimited). Level 0 is base itself; every other level is resampled
// directly from base with cfg, to avoid compounding interpolation error
// (the hardware's chained scaler of Figure 6 is BuildChained and package
// hw/scaler). Every level's grid is planned up front, and the (level, row
// band) jobs of all levels run together, in the order of the base rows
// they start at, on up to workers goroutines; each level's bits do not
// depend on the split or the order. cfg.LevelTimer gets one
// observation per resampled level, the sum of its bands' times. On error,
// including ctx ending mid-build, p's levels are unusable.
//
// The shed finest levels (clamped so that the coarsest level remains) are
// planned but not built: they keep their Level, with its Scale, but a nil
// Map, and cost no resampling. No other level depends on them, so every
// level that is built has the bits of a build with nothing shed.
func (p *Pyramid) Build(ctx context.Context, base *hog.FeatureMap, step float64, minBX, minBY, maxLevels, shed int, cfg ScaleConfig, workers int) error {
	if step <= 1 {
		return fmt.Errorf("featpyr: pyramid step %g must exceed 1", step)
	}
	if maxLevels <= 0 {
		maxLevels = math.MaxInt32
	}
	grid := func(i int) (scale float64, bx, by int) {
		scale = math.Pow(step, float64(i))
		return scale, int(math.Round(float64(base.BlocksX) / scale)), int(math.Round(float64(base.BlocksY) / scale))
	}
	levels := 0
	for ; levels < maxLevels; levels++ {
		if _, bx, by := grid(levels); bx < minBX || by < minBY {
			break
		}
	}
	shed = max(min(shed, levels-1), 0)
	first := max(shed, 1) // the first level resampled from base
	total, cols, bands := 0, 0, 0
	for i := first; i < levels; i++ {
		_, bx, by := grid(i)
		total += bx * by * base.BlockLen
		cols += bx
		bands += (by + bandRows - 1) / bandRows
	}
	p.reset(total, cols)
	if levels == 0 {
		return fmt.Errorf("featpyr: base map %dx%d smaller than window %dx%d",
			base.BlocksX, base.BlocksY, minBX, minBY)
	}
	p.Levels = slices.Grow(p.Levels, levels)
	p.bands = slices.Grow(p.bands[:0], bands)
	for i := 0; i < levels; i++ {
		scale, bx, by := grid(i)
		var m *hog.FeatureMap
		switch {
		case i < shed:
		case i == 0:
			m = base
		default:
			m = p.Map(bx, by, base)
			p.addBands(m, base, float64(base.BlocksX)/float64(bx), float64(base.BlocksY)/float64(by), i-first)
		}
		p.Levels = append(p.Levels, Level{Scale: scale, Map: m})
	}
	// Every level reads the same base map. Run the bands in the order of
	// the base rows they start at, not level by level, so that bands of
	// several levels read the same base rows while they are still in
	// cache, instead of every level streaming the whole base map again.
	// The order changes no bits: each output block depends on base alone.
	slices.SortStableFunc(p.bands, func(a, b band) int {
		return cmp.Compare(float64(a.oy0)*a.ry, float64(b.oy0)*b.ry)
	})
	return p.resample(ctx, cfg, levels-first, workers)
}

// BuildChained rebuilds p the way the hardware builds its pyramid (Figure
// 6): each level is resampled from the *previous* level rather than from
// the base, so interpolation error compounds down the chain but each scaler
// only ever handles the fixed step ratio — which is what makes the
// shift-and-add implementation cheap. Level 0 is base itself. A level
// depends on the one before, so the levels run in order, each with its rows
// spread over up to workers goroutines; otherwise it behaves as Build.
func (p *Pyramid) BuildChained(ctx context.Context, base *hog.FeatureMap, step float64, minBX, minBY, maxLevels int, cfg ScaleConfig, workers int) error {
	return p.chain(ctx, base, step, minBX, minBY, maxLevels, func(src *hog.FeatureMap, bx, by int, rx, ry float64) (*hog.FeatureMap, error) {
		return p.Scale(ctx, src, bx, by, rx, ry, cfg, workers)
	})
}

// BuildFixed is BuildChained on the bit-accurate shift-and-add datapath:
// each level is s.ScaleInto of the one before (a nil s is the shared
// default scaler), written into p's storage, and timer gets one
// observation per level.
func (p *Pyramid) BuildFixed(ctx context.Context, base *hog.FeatureMap, step float64, minBX, minBY, maxLevels int, s *FixedScaler, timer *obs.Histogram) error {
	return p.chain(ctx, base, step, minBX, minBY, maxLevels, func(src *hog.FeatureMap, bx, by int, rx, ry float64) (*hog.FeatureMap, error) {
		m := p.Map(bx, by, src)
		t0 := time.Now()
		_, err := s.ScaleInto(m, src, rx, ry)
		timer.Observe(time.Since(t0))
		return m, err
	})
}

// chain is the loop of BuildChained and BuildFixed: it plans the ladder of
// grids, each the one before divided by step, as far as the window fits
// and maxLevels allows (0 means unlimited), reserves the storage of them
// all, and then writes level i >= 1 with scale(level i-1, grid, ratios).
// A scaler failure on a planned level is an error, not the pyramid's end.
func (p *Pyramid) chain(ctx context.Context, base *hog.FeatureMap, step float64, minBX, minBY, maxLevels int,
	scale func(src *hog.FeatureMap, bx, by int, rx, ry float64) (*hog.FeatureMap, error)) error {
	if step <= 1 {
		return fmt.Errorf("featpyr: pyramid step %g must exceed 1", step)
	}
	if base.BlocksX < minBX || base.BlocksY < minBY {
		return fmt.Errorf("featpyr: base map %dx%d smaller than window %dx%d",
			base.BlocksX, base.BlocksY, minBX, minBY)
	}
	if maxLevels <= 0 {
		maxLevels = math.MaxInt32
	}
	next := func(bx, by int) (int, int) {
		return int(math.Round(float64(bx) / step)), int(math.Round(float64(by) / step))
	}
	levels, total, cols := 1, 0, 0
	for bx, by := next(base.BlocksX, base.BlocksY); levels < maxLevels && bx >= minBX && by >= minBY; bx, by = next(bx, by) {
		total += bx * by * base.BlockLen
		cols += bx
		levels++
	}
	p.reset(total, cols)
	p.Levels = append(slices.Grow(p.Levels, levels), Level{Scale: 1, Map: base})
	prev := base
	for i := 1; i < levels; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		bx, by := next(prev.BlocksX, prev.BlocksY)
		m, err := scale(prev, bx, by, float64(prev.BlocksX)/float64(bx), float64(prev.BlocksY)/float64(by))
		if err != nil {
			return fmt.Errorf("featpyr: level %d: %w", i, err)
		}
		p.Levels = append(p.Levels, Level{Scale: math.Pow(step, float64(i)), Map: m})
		prev = m
	}
	return nil
}
