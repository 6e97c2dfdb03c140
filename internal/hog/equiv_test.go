package hog

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imgproc"
)

// equivTol is the histogram agreement bound between the fused fast path and
// ReferenceComputeCells: both accumulate the same votes up to float
// rounding (Sqrt vs Hypot, threshold comparator + rotated Atan vs Atan2),
// so per-bin differences stay many orders below any signal.
const equivTol = 1e-12

// equivImages builds the adversarial image set of the differential sweep:
// random noise, constant (zero-gradient), single vertical and horizontal
// edges (all votes on one threshold), a checkerboard (diagonal gradients),
// and degenerate one-cell-tall/wide strips, over sizes that exercise both
// whole-cell and partial-cell right/bottom edges.
func equivImages(cell int) map[string]*imgproc.Gray {
	rng := rand.New(rand.NewSource(7))
	noise := func(w, h int) *imgproc.Gray {
		g := imgproc.NewGray(w, h)
		for i := range g.Pix {
			g.Pix[i] = uint8(rng.Intn(256))
		}
		return g
	}
	vedge := imgproc.NewGray(8*cell+3, 4*cell)
	for y := 0; y < vedge.H; y++ {
		for x := vedge.W / 2; x < vedge.W; x++ {
			vedge.Set(x, y, 230)
		}
	}
	hedge := imgproc.NewGray(4*cell, 8*cell+5)
	for y := hedge.H / 2; y < hedge.H; y++ {
		for x := 0; x < hedge.W; x++ {
			hedge.Set(x, y, 230)
		}
	}
	checker := imgproc.NewGray(5*cell+1, 5*cell+2)
	for y := 0; y < checker.H; y++ {
		for x := 0; x < checker.W; x++ {
			if (x+y)%2 == 0 {
				checker.Set(x, y, 255)
			}
		}
	}
	constant := imgproc.NewGray(4*cell, 3*cell)
	constant.Fill(128)
	return map[string]*imgproc.Gray{
		"noise-exact":   noise(8*cell, 6*cell),
		"noise-partial": noise(8*cell+cell/2+1, 6*cell+cell-1),
		"constant":      constant,
		"vertical-edge": vedge,
		"horiz-edge":    hedge,
		"checkerboard":  checker,
		"one-cell-tall": noise(9*cell+2, cell),
		"one-cell-wide": noise(cell, 9*cell+3),
	}
}

// equivConfigs sweeps every Config axis that reaches the front end.
func equivConfigs(cell int) []Config {
	var out []Config
	for _, gamma := range []bool{false, true} {
		for _, interp := range []bool{false, true} {
			for _, layout := range []Layout{LayoutPerCell, LayoutOverlap} {
				for _, norm := range []Norm{L2Hys, L2, L1Sqrt} {
					cfg := DefaultConfig()
					cfg.CellSize = cell
					cfg.SqrtGamma = gamma
					cfg.InterpolateCells = interp
					cfg.Layout = layout
					cfg.Norm = norm
					out = append(out, cfg)
				}
			}
		}
	}
	// Off-default bins and block geometry.
	odd := DefaultConfig()
	odd.CellSize = cell
	odd.Bins = 6
	odd.BlockCells = 3
	odd.InterpolateCells = true
	out = append(out, odd)
	// An odd bin count on the vector cell kernel's path.
	seven := DefaultConfig()
	seven.CellSize = cell
	seven.Bins = 7
	out = append(out, seven)
	return out
}

func diffGrids(t *testing.T, label string, ref, got *CellGrid) {
	t.Helper()
	if ref.CellsX != got.CellsX || ref.CellsY != got.CellsY || ref.Bins != got.Bins {
		t.Fatalf("%s: grid shape %dx%dx%d, reference %dx%dx%d",
			label, got.CellsX, got.CellsY, got.Bins, ref.CellsX, ref.CellsY, ref.Bins)
	}
	for i := range ref.Hist {
		d := math.Abs(ref.Hist[i] - got.Hist[i])
		if d > equivTol*math.Max(1, math.Abs(ref.Hist[i])) {
			t.Fatalf("%s: hist[%d] = %.17g, reference %.17g (diff %g)",
				label, i, got.Hist[i], ref.Hist[i], d)
		}
	}
}

// TestFastPathEquivalence is the differential sweep: for every Config
// combination and adversarial image, the fused fast path must match
// ReferenceComputeCells within equivTol, the scratch variant must be
// byte-identical to the allocating one, any worker count must be
// byte-identical to workers=1, and the vector cell kernel must be
// byte-identical to the scalar vote. The normalized feature maps must
// agree to the same tolerance.
func TestFastPathEquivalence(t *testing.T) {
	for _, cell := range []int{8, 5} {
		images := equivImages(cell)
		for _, cfg := range equivConfigs(cell) {
			for name, img := range images {
				label := fmt.Sprintf("cell=%d gamma=%v interp=%v layout=%v norm=%v bins=%d img=%s",
					cfg.CellSize, cfg.SqrtGamma, cfg.InterpolateCells, cfg.Layout, cfg.Norm, cfg.Bins, name)
				ref, err := ReferenceComputeCells(img, cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := ComputeCells(img, cfg)
				if err != nil {
					t.Fatalf("%s: fast: %v", label, err)
				}
				diffGrids(t, label, ref, got)

				s := NewScratch()
				g1, err := ComputeCellsInto(context.Background(), img, cfg, s, 1)
				if err != nil {
					t.Fatalf("%s: into: %v", label, err)
				}
				for i := range got.Hist {
					if math.Float64bits(got.Hist[i]) != math.Float64bits(g1.Hist[i]) {
						t.Fatalf("%s: scratch hist[%d] = %.17g, serial %.17g (must be byte-identical)",
							label, i, g1.Hist[i], got.Hist[i])
					}
				}
				for _, workers := range []int{2, 5} {
					sw := NewScratch()
					gw, err := ComputeCellsInto(context.Background(), img, cfg, sw, workers)
					if err != nil {
						t.Fatalf("%s: workers=%d: %v", label, workers, err)
					}
					for i := range g1.Hist {
						if math.Float64bits(g1.Hist[i]) != math.Float64bits(gw.Hist[i]) {
							t.Fatalf("%s: workers=%d hist[%d] = %.17g, workers=1 %.17g (must be byte-identical)",
								label, workers, i, gw.Hist[i], g1.Hist[i])
						}
					}
				}

				// The vector cell kernel must reproduce the scalar vote's
				// bits, serially and banded.
				if haveCellKernel {
					for _, workers := range []int{1, 3} {
						sameBits(t, fmt.Sprintf("%s: vector vs scalar, workers=%d", label, workers),
							cellsWithKernel(t, false, img, cfg, workers), cellsWithKernel(t, true, img, cfg, workers))
					}
				}

				// Normalized features carry the same bound: same math on
				// near-identical inputs.
				refFM, refErr := Normalize(ref, cfg)
				gotFM, err := ComputeInto(context.Background(), img, cfg, s, 1)
				if refErr != nil {
					// e.g. a one-cell-tall grid cannot form an overlap
					// block; the fast path must refuse identically.
					if err == nil {
						t.Fatalf("%s: reference normalize failed (%v) but fast path succeeded", label, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: compute into: %v", label, err)
				}
				if refFM.BlocksX != gotFM.BlocksX || refFM.BlocksY != gotFM.BlocksY {
					t.Fatalf("%s: map %dx%d, reference %dx%d", label,
						gotFM.BlocksX, gotFM.BlocksY, refFM.BlocksX, refFM.BlocksY)
				}
				for i := range refFM.Feat {
					a, b := refFM.Feat[i], gotFM.Feat[i]
					d := math.Abs(a - b)
					if cfg.Norm == L1Sqrt {
						// The element-wise square root amplifies the
						// ~1e-16 histogram rounding differences near
						// zero; compare the squares instead, which carry
						// the histogram-level bound.
						d = math.Abs(a*a - b*b)
					}
					if d > 1e-10 {
						t.Fatalf("%s: feat[%d] = %.17g, reference %.17g (diff %g)",
							label, i, gotFM.Feat[i], refFM.Feat[i], d)
					}
				}
			}
		}
	}
}

// TestBinThresholdTies pins the defined tie semantics of the tangent-
// threshold comparator: a gradient lying exactly on threshold b — built as
// (cos_b, sin_b), whose cross product cancels exactly in floats — selects
// the bin pair (b, b+1) deterministically, with alpha at zero up to float
// rounding (the bin choice is exact; alpha is a continuous weight recovered
// through the rotated arctangent, so it carries a couple of ulps).
const tieTol = 1e-15

func TestBinThresholdTies(t *testing.T) {
	for _, bins := range []int{9, 6, 2} {
		var bt binTable
		bt.init(bins)
		for b := 0; b < bins; b++ {
			b0, b1, alpha := bt.bin(bt.cos[b], bt.sin[b])
			if b0 != b || alpha > tieTol {
				t.Errorf("bins=%d threshold %d: got b0=%d alpha=%g, want b0=%d alpha~0", bins, b, b0, alpha, b)
			}
			wantB1 := (b + 1) % bins
			if b1 != wantB1 {
				t.Errorf("bins=%d threshold %d: b1=%d, want %d", bins, b, b1, wantB1)
			}
			// The same direction scaled by a power of two (an exact float
			// multiply) keeps the tie exact.
			if b0s, _, alphaS := bt.bin(4*bt.cos[b], 4*bt.sin[b]); b0s != b || alphaS > tieTol {
				t.Errorf("bins=%d scaled threshold %d: got b0=%d alpha=%g", bins, b, b0s, alphaS)
			}
			// The negated direction is the same unsigned orientation.
			if b0n, _, alphaN := bt.bin(-bt.cos[b], -bt.sin[b]); b0n != b || alphaN > tieTol {
				t.Errorf("bins=%d negated threshold %d: got b0=%d alpha=%g", bins, b, b0n, alphaN)
			}
		}
		// A horizontal gradient sits exactly between the last and first
		// bins: alpha = 0.5 within float rounding, wrapping lower bin.
		for _, gx := range []float64{1, -1} {
			b0, b1, alpha := bt.bin(gx, 0)
			if b0 != bins-1 || b1 != 0 {
				t.Errorf("bins=%d gx=%g: bin pair (%d,%d), want (%d,0)", bins, gx, b0, b1, bins-1)
			}
			if math.Abs(alpha-0.5) > 1e-15 {
				t.Errorf("bins=%d gx=%g: alpha=%g, want 0.5", bins, gx, alpha)
			}
		}
	}
}

// TestComputeCellsIntoReuse checks that a Scratch survives shape changes:
// growing, shrinking, and switching configs between frames.
func TestComputeCellsIntoReuse(t *testing.T) {
	s := NewScratch()
	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.InterpolateCells = true
	cfgB.Bins = 6
	rng := rand.New(rand.NewSource(11))
	for i, dims := range [][2]int{{64, 128}, {320, 240}, {16, 16}, {129, 65}, {320, 240}} {
		img := imgproc.NewGray(dims[0], dims[1])
		for j := range img.Pix {
			img.Pix[j] = uint8(rng.Intn(256))
		}
		for _, cfg := range []Config{cfgA, cfgB} {
			ref, err := ReferenceComputeCells(img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ComputeCellsInto(context.Background(), img, cfg, s, 3)
			if err != nil {
				t.Fatal(err)
			}
			diffGrids(t, fmt.Sprintf("frame %d %dx%d bins=%d", i, dims[0], dims[1], cfg.Bins), ref, got)
		}
	}
}

// TestComputeIntoWorkerSplitsBitIdentical pins the parallel front end —
// luminance rows, cell bands and block-row normalization — on both cell
// kernel paths to the serial scalar one bit for bit, for every layout and
// norm, on frames whose pixel and cell row counts divide neither the band
// height nor any worker count, down to a map one block row tall.
func TestComputeIntoWorkerSplitsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// 59 px = 7 cell rows, 109 px = 13 cell rows; 13 px is one cell row
	// (one per-cell block row), 19 px two (one overlap block row).
	var frames []*imgproc.Gray
	for _, h := range []int{59, 109, 13, 19} {
		img := imgproc.NewGray(77, h)
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(256))
		}
		frames = append(frames, img)
	}
	for _, layout := range []Layout{LayoutOverlap, LayoutPerCell} {
		for _, norm := range []Norm{L2Hys, L2, L1Sqrt} {
			for _, extra := range []string{"plain", "gamma", "interp"} {
				cfg := DefaultConfig()
				cfg.Layout, cfg.Norm = layout, norm
				cfg.SqrtGamma = extra == "gamma"
				cfg.InterpolateCells = extra == "interp"
				for _, img := range frames {
					label := fmt.Sprintf("layout=%v norm=%v %s %dx%d", layout, norm, extra, img.W, img.H)
					var want *FeatureMap
					var err error
					withCellKernel(false, func() {
						want, err = ComputeInto(context.Background(), img, cfg, NewScratch(), 1)
					})
					if err != nil {
						if layout == LayoutOverlap && img.H < 2*cfg.CellSize {
							continue // one cell row forms no overlap block
						}
						t.Fatalf("%s: %v", label, err)
					}
					for _, kernel := range cellKernelModes(t) {
						withCellKernel(kernel, func() {
							for _, workers := range []int{1, 2, 3, 5, 8} {
								s := NewScratch()
								for pass := 0; pass < 2; pass++ { // cold, then warm scratch
									got, err := ComputeInto(context.Background(), img, cfg, s, workers)
									if err != nil {
										t.Fatalf("%s kernel=%v workers=%d: %v", label, kernel, workers, err)
									}
									if got.BlocksX != want.BlocksX || got.BlocksY != want.BlocksY {
										t.Fatalf("%s kernel=%v workers=%d: map %dx%d, serial %dx%d", label, kernel, workers,
											got.BlocksX, got.BlocksY, want.BlocksX, want.BlocksY)
									}
									for i := range want.Feat {
										if math.Float64bits(got.Feat[i]) != math.Float64bits(want.Feat[i]) {
											t.Fatalf("%s kernel=%v workers=%d pass %d: feat[%d] = %.17g, scalar serial %.17g",
												label, kernel, workers, pass, i, got.Feat[i], want.Feat[i])
										}
									}
								}
							}
						})
					}
				}
			}
		}
	}
}
