package hog

import (
	"context"
	"fmt"
	"math"

	"repro/internal/imgproc"
	"repro/internal/par"
)

// This file holds the fused cell-histogramming fast path: the software
// analogue of the paper's streaming extractor. Where ReferenceComputeCells
// spends an Atan2 + Hypot per pixel behind a clamping accessor, the fused
// pass
//
//   - converts pixels to luminance through a 256-entry lookup table
//     (bit-identical to the reference's division, gamma hoisted out of the
//     loop entirely),
//   - selects the orientation bin by tangent-threshold comparison against
//     the bin-center angles (b+0.5)*pi/Bins — the hardware's comparator
//     tree — and recovers the interpolation weight from one small-argument
//     math.Atan of the gradient rotated into the selected bin's frame,
//   - takes the magnitude as Sqrt(gx^2+gy^2) (luminance is in [0,1], so
//     Hypot's overflow guards buy nothing),
//   - walks interior rows through bounds-check-free slice windows, leaving
//     the replicate-clamp border semantics to a thin border pass,
//   - votes interior rows in two passes where the CPU has AVX2 and Bins >=
//     6 (vote.go): pass 1, binRun, bins a run of pixels four per ymm
//     register into (b0, b1, w0, w1) with vote's float operations in
//     vote's order, and pass 2, the scalar accumulate, adds them into the
//     cells in pixel order, so every cell sum keeps the bits the scalar
//     vote gives it, and
//   - histograms cell-row bands in parallel with a worker-count-independent
//     band partition, so any worker count produces byte-identical grids.
//
// Votes land in the same bins with the same weights as the reference up to
// float rounding; TestFastPathEquivalence and FuzzComputeCells pin the
// histograms to within 1e-12, and the vector vote to the scalar one bit for
// bit.

// lumLUT and lumLUTGamma map 8-bit pixel values to [0,1] luminance, plain
// and sqrt-gamma-compressed. Table entries are computed with the exact
// expressions of the reference implementation, so the lookup is
// bit-identical to converting in the loop.
var lumLUT, lumLUTGamma [256]float64

func init() {
	for v := 0; v < 256; v++ {
		lumLUT[v] = float64(v) / 255
		lumLUTGamma[v] = math.Sqrt(float64(v) / 255)
	}
}

// bandCellRows is the height of one histogramming band in cell rows. The
// partition depends only on the grid height — never on the worker count —
// which is what makes banded results byte-identical at any parallelism:
// bands are merely distributed over workers, and the halo merge below
// always runs in ascending band order.
const bandCellRows = 4

// binTable holds the per-Bins orientation constants of the tangent-threshold
// binner. The threshold angles are the bin centers (b+0.5)*pi/Bins — the
// two-nearest-bin vote switches its lower bin exactly when the gradient
// angle crosses a bin center, so the hardware comparator thresholds
// tan((b+0.5)*pi/Bins) are also the software selector's decision boundaries.
// Comparisons use the (cos, sin) normal form of each threshold,
// gy*cos - gx*sin >= 0, which is the same predicate as gy/gx >= tan but is
// exact in every quadrant and needs no division.
type binTable struct {
	bins int
	invW float64 // Bins/pi, i.e. 1/binWidth
	// tan[b] = tan((b+0.5)*pi/Bins): the paper-style comparator constants,
	// kept for documentation and the threshold-tie tests.
	tan []float64
	// cos[b], sin[b] of the threshold angles (b+0.5)*pi/Bins: the
	// comparator predicate gy/gx >= tan in normal form.
	cos, sin []float64
	// cosE[k], sinE[k] of the bin-edge angles k*pi/Bins, k = 0..Bins: the
	// rotation frames the interpolation weight is recovered in.
	cosE, sinE []float64
	// poly selects the in-line Taylor arctangent: valid whenever the
	// rotated tangent stays within tan(pi/12) (Bins >= 6), where the
	// series truncation is below 5e-14. Smaller bin counts fall back to
	// math.Atan.
	poly bool
	// thr and kc are the vector kernel's tables, each value repeated in
	// four lanes: thr holds cos[b] then sin[b] per threshold b, kc the
	// series constants c1 .. c11, 1, 0.5 and invW, at the offsets
	// vote_amd64.s reads them from.
	thr []float64
	kc  [14][4]float64
}

func (t *binTable) init(bins int) {
	t.bins = bins
	w := math.Pi / float64(bins)
	t.invW = float64(bins) / math.Pi
	if cap(t.tan) < bins {
		t.tan = make([]float64, bins)
		t.cos = make([]float64, bins)
		t.sin = make([]float64, bins)
		t.cosE = make([]float64, bins+1)
		t.sinE = make([]float64, bins+1)
		t.thr = make([]float64, 8*bins)
	}
	t.tan = t.tan[:bins]
	t.cos = t.cos[:bins]
	t.sin = t.sin[:bins]
	t.cosE = t.cosE[:bins+1]
	t.sinE = t.sinE[:bins+1]
	t.thr = t.thr[:8*bins]
	for b := 0; b < bins; b++ {
		a := (float64(b) + 0.5) * w
		t.tan[b] = math.Tan(a)
		t.cos[b] = math.Cos(a)
		t.sin[b] = math.Sin(a)
		for j := 0; j < 4; j++ {
			t.thr[8*b+j] = t.cos[b]
			t.thr[8*b+4+j] = t.sin[b]
		}
	}
	for k := 0; k <= bins; k++ {
		a := float64(k) * w
		t.cosE[k] = math.Cos(a)
		t.sinE[k] = math.Sin(a)
	}
	t.poly = bins >= 6
	for i, c := range [14]float64{c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, 1, 0.5, t.invW} {
		t.kc[i] = [4]float64{c, c, c, c}
	}
}

// c1 .. c11 are the odd Taylor coefficients of arctan after x, -1/3 ..
// -1/23, shared by atanSmall, vote and (as float64 bits in binTable.kc)
// the vector kernel.
const (
	c1  = -1.0 / 3
	c2  = 1.0 / 5
	c3  = -1.0 / 7
	c4  = 1.0 / 9
	c5  = -1.0 / 11
	c6  = 1.0 / 13
	c7  = -1.0 / 15
	c8  = 1.0 / 17
	c9  = -1.0 / 19
	c10 = 1.0 / 21
	c11 = -1.0 / 23
)

// atanSmall is an odd Taylor arctangent for |x| <= tan(pi/12): terms
// through x^23, evaluated Estrin-style so the ~25 flops pipeline instead of
// forming a Horner dependency chain. Truncation (first dropped term
// x^25/25) is below 4e-16 at the domain edge — invisible against the front
// end's 1e-12 equivalence bound — and it costs no division and no call.
func atanSmall(x float64) float64 {
	z := x * x
	z2 := z * z
	z4 := z2 * z2
	p01 := 1 + c1*z
	p23 := c2 + c3*z
	p45 := c4 + c5*z
	p67 := c6 + c7*z
	p89 := c8 + c9*z
	pAB := c10 + c11*z
	q0 := p01 + p23*z2
	q1 := p45 + p67*z2
	q2 := p89 + pAB*z2
	return x * (q0 + (q1+q2*z4)*z4)
}

// bin selects the two-nearest-bin vote for a non-zero gradient (gx, gy):
// the lower bin b0, the upper bin b1 (cyclic neighbour), and the fraction
// alpha of the magnitude voted to b1.
//
// Selection is the hardware comparator tree: count how many tangent
// thresholds the gradient direction has passed. Each test gy*cos[b] -
// gx*sin[b] >= 0 is the threshold predicate in normal form, and the count
// is accumulated branchlessly from the difference sign bits — gradient
// directions are data-random, so a compare-and-branch walk would mispredict
// heavily.
//
// The interpolation weight is recovered by rotating the gradient into the
// frame of the *edge* between the two selected bins (angle k*pi/Bins): the
// rotated tangent v/u is then confined to [-tan(pi/2B), +tan(pi/2B)], a
// tiny arctangent argument handled by the in-line series (math.Atan for
// Bins < 6), and alpha = 0.5 + atan(v/u)/binWidth. The tangent's pi-
// periodicity makes the k = 0 and k = Bins frames equivalent, which is
// exactly the wrap of the unsigned orientation circle.
//
// Tie semantics, pinned by TestBinThresholdTies: a gradient lying exactly
// on threshold b (gy*cos[b] == gx*sin[b]) selects the bin pair (b, b+1)
// with alpha ~ 0 (the vote goes to bin b up to float rounding).
func (t *binTable) bin(gx, gy float64) (b0, b1 int, alpha float64) {
	// Fold to the upper half-plane: orientation is unsigned (mod pi). The
	// fold is branchless — both components flip by gy's sign bit — because
	// gradient angles are data-random and a compare-and-branch would
	// mispredict half the time. (gy is never -0 here: luminances are
	// non-negative and IEEE subtraction of equal values rounds to +0, so
	// the sign-bit test agrees exactly with gy < 0.)
	sgn := math.Float64bits(gy) & (1 << 63)
	gx = math.Float64frombits(math.Float64bits(gx) ^ sgn)
	gy = math.Float64frombits(math.Float64bits(gy) ^ sgn)
	// The thresholds are sorted in (0, pi) and the folded angle is in
	// [0, pi), so the cross products gy*cos[b] - gx*sin[b] (= |g| *
	// sin(theta - threshold_b)) are non-negative up to the last threshold
	// below theta and negative after it: count the negatives.
	cosT := t.cos
	sinT := t.sin[:len(cosT)]
	neg := 0
	for b := range cosT {
		cross := gy*cosT[b] - gx*sinT[b]
		neg += int(math.Float64bits(cross) >> 63)
	}
	k := t.bins - neg
	b0 = k - 1
	if b0 < 0 {
		b0 = t.bins - 1
	}
	b1 = k
	if b1 >= t.bins {
		b1 = 0
	}
	ce, se := t.cosE[k], t.sinE[k]
	v := gy*ce - gx*se
	u := gx*ce + gy*se
	x := v / u
	var a float64
	if t.poly {
		a = atanSmall(x)
	} else {
		a = math.Atan(x)
	}
	alpha = 0.5 + a*t.invW
	// The comparator and the float arctangent can disagree by an ulp at
	// the bin edges; clamp so the vote split stays a convex pair.
	if alpha > 1 {
		alpha = 1
	} else if alpha < 0 {
		alpha = 0
	}
	return b0, b1, alpha
}

// fusedCtx is the shared read-only state of one fused histogramming pass.
type fusedCtx struct {
	pix            []uint8
	lut            *[256]float64
	lumRows        int // pixel rows per luminance job
	lum            []float64
	w, h           int
	cell           int
	invCell        float64 // 1/CellSize, hoisted out of the interpolation loop
	cellsX, cellsY int
	bins           int
	maxX, maxY     int // whole-cell pixel extent
	interp         bool
	vec            bool // interior rows vote through voteRun
	bt             *binTable
	hist           []float64 // dst.Hist
	halo           []float64 // numBands * 2 * cellsX * bins, interp only
	numBands       int
}

// computeCellsImpl runs the fused pass over img into dst, using s for
// luminance/halo/threshold scratch. dst.Hist must already have the right
// length; its contents are overwritten. workers bounds the parallelism of
// the luminance rows and the cell bands; every worker count yields
// byte-identical histograms. Once ctx is done no further luminance row run
// or band starts, and the error wraps ctx.Err().
func computeCellsImpl(ctx context.Context, img *imgproc.Gray, cfg Config, dst *CellGrid, s *Scratch, workers int) error {
	w, h := img.W, img.H
	cellsX, cellsY := dst.CellsX, dst.CellsY
	if s.bt.bins != cfg.Bins {
		s.bt.init(cfg.Bins)
	}
	if cap(s.lum) < w*h {
		s.lum = make([]float64, w*h)
	}
	lut := &lumLUT
	if cfg.SqrtGamma {
		lut = &lumLUTGamma
	}
	fc := &s.fc
	*fc = fusedCtx{
		// Index by the claimed dimensions, not len(Pix), and do it here on
		// the calling goroutine: a pixel buffer shorter than its header must
		// panic in the caller (the streaming runtime converts that to a
		// per-frame PanicError), exactly like the reference's accessor,
		// rather than inside a pool worker.
		pix:     img.Pix[:w*h],
		lut:     lut,
		lum:     s.lum[:w*h],
		w:       w,
		h:       h,
		cell:    cfg.CellSize,
		invCell: 1 / float64(cfg.CellSize),
		cellsX:  cellsX,
		cellsY:  cellsY,
		bins:    cfg.Bins,
		maxX:    cellsX * cfg.CellSize,
		maxY:    cellsY * cfg.CellSize,
		interp:  cfg.InterpolateCells,
		vec:     cellKernel.Load() && s.bt.poly,
		bt:      &s.bt,
		hist:    dst.Hist,
	}
	fc.numBands = (cellsY + bandCellRows - 1) / bandCellRows
	if fc.interp {
		n := fc.numBands * 2 * cellsX * cfg.Bins
		if cap(s.halo) < n {
			s.halo = make([]float64, n)
		}
		fc.halo = s.halo[:n]
	}

	// Luminance plane, table-driven, split into one run of pixel rows per
	// worker (every pixel converts independently).
	parts := max(workers, 1)
	fc.lumRows = (h + parts - 1) / parts
	if err := par.Do(ctx, (h+fc.lumRows-1)/fc.lumRows, workers, s.lumJob); err != nil {
		return fmt.Errorf("hog: luminance: %w", err)
	}
	if err := par.Do(ctx, fc.numBands, workers, s.bandJob); err != nil {
		return fmt.Errorf("hog: cell bands: %w", err)
	}

	// Deterministic halo merge: ascending band order, top halo before
	// bottom, matching what a serial band sweep produces.
	if fc.interp {
		rowLen := cellsX * cfg.Bins
		for b := 0; b < fc.numBands; b++ {
			top := fc.halo[b*2*rowLen : b*2*rowLen+rowLen]
			bot := fc.halo[b*2*rowLen+rowLen : (b+1)*2*rowLen]
			if r := b*bandCellRows - 1; r >= 0 {
				addRow(dst.Hist[r*rowLen:(r+1)*rowLen], top)
			}
			if r := (b + 1) * bandCellRows; r < cellsY {
				addRow(dst.Hist[r*rowLen:(r+1)*rowLen], bot)
			}
		}
	}
	return nil
}

// lumJob converts pixel rows [i*lumRows, (i+1)*lumRows) to luminance.
func (fc *fusedCtx) lumJob(i int) error {
	y0 := i * fc.lumRows
	y1 := min(y0+fc.lumRows, fc.h)
	lut := fc.lut
	lum := fc.lum[y0*fc.w : y1*fc.w]
	for k, v := range fc.pix[y0*fc.w : y1*fc.w] {
		lum[k] = lut[v]
	}
	return nil
}

func addRow(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// band histograms the pixel rows of cell-row band b.
func (fc *fusedCtx) band(b int) error {
	r0 := b * bandCellRows
	r1 := r0 + bandCellRows
	if r1 > fc.cellsY {
		r1 = fc.cellsY
	}
	y0, y1 := r0*fc.cell, r1*fc.cell
	rowLen := fc.cellsX * fc.bins
	// The band owns its cell rows and halo rows, so it clears them itself.
	clear(fc.hist[r0*rowLen : r1*rowLen])
	if fc.interp {
		top := fc.halo[b*2*rowLen : b*2*rowLen+rowLen]
		bot := fc.halo[b*2*rowLen+rowLen : (b+1)*2*rowLen]
		clear(top)
		clear(bot)
		for y := y0; y < y1; y++ {
			fc.rowInterp(y, r0, r1, top, bot)
		}
		return nil
	}
	for y := y0; y < y1; y++ {
		histRow := fc.hist[(y/fc.cell)*rowLen:]
		if y == 0 || y+1 >= fc.h {
			fc.rowBorder(y, histRow)
		} else {
			fc.rowInterior(y, histRow)
		}
	}
	return nil
}

// vote accumulates one gradient into a cell histogram slice. It is a
// hand-merged copy of binTable.bin + atanSmall + the two accumulates: the
// three nested calls each cost a register spill of the live row state under
// Go's caller-saved float ABI, and none of them fits the inlining budget.
// The float expression sequence is verbatim identical to bin() (the
// specification copy, exercised by TestBinThresholdTies and the
// interpolation path); any edit here must be mirrored there.
func (fc *fusedCtx) vote(h []float64, gx, gy, m2 float64) {
	mag := math.Sqrt(m2)
	t := fc.bt
	// Branchless half-plane fold: flip both components by gy's sign bit.
	// Gradient angles are data-random, so a compare-and-branch fold would
	// mispredict half the time. (gy is never -0 here: luminances are
	// non-negative and IEEE subtraction of equal values rounds to +0, so
	// the sign-bit test agrees exactly with gy < 0.)
	sgn := math.Float64bits(gy) & (1 << 63)
	gx = math.Float64frombits(math.Float64bits(gx) ^ sgn)
	gy = math.Float64frombits(math.Float64bits(gy) ^ sgn)
	cosT := t.cos
	sinT := t.sin[:len(cosT)]
	neg := 0
	for b := range cosT {
		cross := gy*cosT[b] - gx*sinT[b]
		neg += int(math.Float64bits(cross) >> 63)
	}
	k := t.bins - neg
	b0 := k - 1
	if b0 < 0 {
		b0 = t.bins - 1
	}
	b1 := k
	if b1 >= t.bins {
		b1 = 0
	}
	ce, se := t.cosE[k], t.sinE[k]
	v := gy*ce - gx*se
	u := gx*ce + gy*se
	x := v / u
	var a float64
	if t.poly {
		z := x * x
		z2 := z * z
		z4 := z2 * z2
		p01 := 1 + c1*z
		p23 := c2 + c3*z
		p45 := c4 + c5*z
		p67 := c6 + c7*z
		p89 := c8 + c9*z
		pAB := c10 + c11*z
		q0 := p01 + p23*z2
		q1 := p45 + p67*z2
		q2 := p89 + pAB*z2
		a = x * (q0 + (q1+q2*z4)*z4)
	} else {
		a = math.Atan(x)
	}
	alpha := 0.5 + a*t.invW
	if alpha > 1 {
		alpha = 1
	} else if alpha < 0 {
		alpha = 0
	}
	h[b0] += mag * (1 - alpha)
	h[b1] += mag * alpha
}

// rowInterior processes one pixel row with both vertical neighbours in
// range: gradients read three raw row slices directly, and each cell span
// runs through equal-length slice windows so the inner loop carries no
// bounds checks and no clamping.
func (fc *fusedCtx) rowInterior(y int, histRow []float64) {
	w := fc.w
	base := y * w
	here := fc.lum[base : base+w]
	above := fc.lum[base-w : base]
	below := fc.lum[base+w : base+2*w]

	// x = 0 is the only left-border pixel; x = w-1 the only right-border
	// one, and it is in play only when the cell grid reaches the last
	// column.
	{
		gx := here[1] - here[0]
		gy := below[0] - above[0]
		if m2 := gx*gx + gy*gy; m2 != 0 {
			fc.vote(histRow[:fc.bins], gx, gy, m2)
		}
	}
	xEnd := fc.maxX
	clampRight := fc.maxX == w
	if clampRight {
		xEnd = w - 1
	}
	if fc.vec {
		fc.voteRun(here, above, below, histRow, 1, xEnd)
	} else {
		fc.interiorCells(here, above, below, histRow, xEnd)
	}
	if clampRight {
		x := w - 1
		gx := here[x] - here[x-1]
		gy := below[x] - above[x]
		if m2 := gx*gx + gy*gy; m2 != 0 {
			fc.vote(histRow[(fc.cellsX-1)*fc.bins:fc.cellsX*fc.bins], gx, gy, m2)
		}
	}
}

// interiorCells is the scalar form of voteRun over the interior pixels
// [1, xEnd): each cell span runs through equal-length slice windows, so
// the inner loop carries no bounds checks.
func (fc *fusedCtx) interiorCells(here, above, below, histRow []float64, xEnd int) {
	for cx := 0; cx < fc.cellsX; cx++ {
		x0 := cx * fc.cell
		if x0 == 0 {
			x0 = 1
		}
		x1 := (cx + 1) * fc.cell
		if x1 > xEnd {
			x1 = xEnd
		}
		if x1 <= x0 {
			continue
		}
		h := histRow[cx*fc.bins : cx*fc.bins+fc.bins]
		a := above[x0:x1]
		bl := below[x0:x1]
		l := here[x0-1 : x1-1]
		r := here[x0+1 : x1+1]
		for i := range a {
			gx := r[i] - l[i]
			gy := bl[i] - a[i]
			m2 := gx*gx + gy*gy
			if m2 == 0 {
				continue
			}
			fc.vote(h, gx, gy, m2)
		}
	}
}

// rowBorder processes a top or bottom pixel row with replicate-clamp
// vertical neighbours (and clamped horizontal neighbours at the two ends),
// preserving the reference's border semantics.
func (fc *fusedCtx) rowBorder(y int, histRow []float64) {
	w := fc.w
	ym, yp := y-1, y+1
	if ym < 0 {
		ym = 0
	}
	if yp >= fc.h {
		yp = fc.h - 1
	}
	here := fc.lum[y*w : y*w+w]
	above := fc.lum[ym*w : ym*w+w]
	below := fc.lum[yp*w : yp*w+w]
	for x := 0; x < fc.maxX; x++ {
		xm, xp := x-1, x+1
		if xm < 0 {
			xm = 0
		}
		if xp >= w {
			xp = w - 1
		}
		gx := here[xp] - here[xm]
		gy := below[x] - above[x]
		m2 := gx*gx + gy*gy
		if m2 == 0 {
			continue
		}
		fc.vote(histRow[(x/fc.cell)*fc.bins:], gx, gy, m2)
	}
}

// rowInterp processes one pixel row with bilinear cell interpolation.
// Contributions to cell rows owned by the band go straight into the grid;
// the one possible row above (top) and below (bot) the band go into the
// band's private halo rows, merged deterministically afterwards.
func (fc *fusedCtx) rowInterp(y, r0, r1 int, top, bot []float64) {
	w := fc.w
	here := fc.lum[y*w : y*w+w]
	ym, yp := y-1, y+1
	if ym < 0 {
		ym = 0
	}
	if yp >= fc.h {
		yp = fc.h - 1
	}
	above := fc.lum[ym*w : ym*w+w]
	below := fc.lum[yp*w : yp*w+w]

	fy := (float64(y)+0.5)*fc.invCell - 0.5
	cy0 := int(math.Floor(fy))
	ay := fy - float64(cy0)
	rowLen := fc.cellsX * fc.bins
	// Resolve the two destination rows once per pixel row.
	dest := func(cy int) []float64 {
		switch {
		case cy < 0 || cy >= fc.cellsY:
			return nil
		case cy >= r0 && cy < r1:
			return fc.hist[cy*rowLen : (cy+1)*rowLen]
		case cy == r0-1:
			return top
		default: // cy == r1, the only other reachable row
			return bot
		}
	}
	d0 := dest(cy0)
	d1 := dest(cy0 + 1)
	w0 := 1 - ay
	w1 := ay

	for x := 0; x < fc.maxX; x++ {
		xm, xp := x-1, x+1
		if xm < 0 {
			xm = 0
		}
		if xp >= w {
			xp = w - 1
		}
		gx := here[xp] - here[xm]
		gy := below[x] - above[x]
		m2 := gx*gx + gy*gy
		if m2 == 0 {
			continue
		}
		mag := math.Sqrt(m2)
		b0, b1, alpha := fc.bt.bin(gx, gy)
		v0 := mag * (1 - alpha)
		v1 := mag * alpha

		fx := (float64(x)+0.5)*fc.invCell - 0.5
		cx0 := int(math.Floor(fx))
		ax := fx - float64(cx0)

		if d0 != nil {
			if cx0 >= 0 {
				h := d0[cx0*fc.bins:]
				wc := w0 * (1 - ax)
				h[b0] += v0 * wc
				h[b1] += v1 * wc
			}
			if cx0+1 < fc.cellsX {
				h := d0[(cx0+1)*fc.bins:]
				wc := w0 * ax
				h[b0] += v0 * wc
				h[b1] += v1 * wc
			}
		}
		if d1 != nil {
			if cx0 >= 0 {
				h := d1[cx0*fc.bins:]
				wc := w1 * (1 - ax)
				h[b0] += v0 * wc
				h[b1] += v1 * wc
			}
			if cx0+1 < fc.cellsX {
				h := d1[(cx0+1)*fc.bins:]
				wc := w1 * ax
				h[b0] += v0 * wc
				h[b1] += v1 * wc
			}
		}
	}
}
