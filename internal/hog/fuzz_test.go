package hog

import (
	"context"
	"math"
	"testing"

	"repro/internal/imgproc"
)

// FuzzComputeCells differentially fuzzes the fused fast path against
// ReferenceComputeCells: arbitrary pixel payloads, dimensions, and the
// Config bits that reach the front end. Any histogram divergence beyond
// float rounding is a bug in the fused pass, and any bit of divergence
// between the vector cell kernel and the scalar vote is a bug in the
// kernel.
func FuzzComputeCells(f *testing.F) {
	// Seed corpus: the adversarial shapes of the differential sweep.
	f.Add([]byte{0}, uint8(16), uint8(16), uint8(0))
	f.Add([]byte{255, 0, 255, 0, 128}, uint8(40), uint8(8), uint8(1))       // one cell tall, gamma
	f.Add([]byte{1, 2, 3, 250, 4, 200}, uint8(8), uint8(40), uint8(2))      // one cell wide, interp
	f.Add([]byte{9, 99, 199, 29, 129, 229}, uint8(21), uint8(19), uint8(3)) // partial cells, gamma+interp
	f.Add([]byte{128, 127, 126, 129}, uint8(33), uint8(17), uint8(4))       // small-bins axis
	f.Add([]byte{0, 255}, uint8(64), uint8(48), uint8(7))

	f.Fuzz(func(t *testing.T, pix []byte, w8, h8, bits uint8) {
		cfg := DefaultConfig()
		cfg.SqrtGamma = bits&1 != 0
		cfg.InterpolateCells = bits&2 != 0
		if bits&4 != 0 {
			cfg.Bins = 7
			cfg.CellSize = 6
		}
		// Clamp dimensions to at least one cell and a bounded work size.
		w := int(w8)%96 + cfg.CellSize
		h := int(h8)%96 + cfg.CellSize
		img := imgproc.NewGray(w, h)
		if len(pix) > 0 {
			for i := range img.Pix {
				img.Pix[i] = pix[i%len(pix)]
			}
		}
		ref, err := ReferenceComputeCells(img, cfg)
		if err != nil {
			t.Fatalf("reference rejected %dx%d: %v", w, h, err)
		}
		got, err := ComputeCells(img, cfg)
		if err != nil {
			t.Fatalf("fast path rejected %dx%d: %v", w, h, err)
		}
		if got.CellsX != ref.CellsX || got.CellsY != ref.CellsY || got.Bins != ref.Bins {
			t.Fatalf("grid shape %dx%dx%d, reference %dx%dx%d",
				got.CellsX, got.CellsY, got.Bins, ref.CellsX, ref.CellsY, ref.Bins)
		}
		for i := range ref.Hist {
			d := math.Abs(ref.Hist[i] - got.Hist[i])
			if d > equivTol*math.Max(1, math.Abs(ref.Hist[i])) {
				t.Fatalf("hist[%d] = %.17g, reference %.17g (diff %g, %dx%d gamma=%v interp=%v bins=%d)",
					i, got.Hist[i], ref.Hist[i], d, w, h, cfg.SqrtGamma, cfg.InterpolateCells, cfg.Bins)
			}
		}
		// The vector cell kernel must be byte-identical to the scalar vote.
		if haveCellKernel {
			for _, workers := range []int{1, 4} {
				scalar := cellsWithKernel(t, false, img, cfg, workers)
				vector := cellsWithKernel(t, true, img, cfg, workers)
				for i := range scalar {
					if math.Float64bits(scalar[i]) != math.Float64bits(vector[i]) {
						t.Fatalf("workers=%d hist[%d]: vector kernel %.17g, scalar %.17g", workers, i, vector[i], scalar[i])
					}
				}
			}
		}
		// The banded parallel path must be byte-identical to serial.
		s := NewScratch()
		gw, err := ComputeCellsInto(context.Background(), img, cfg, s, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Hist {
			if math.Float64bits(got.Hist[i]) != math.Float64bits(gw.Hist[i]) {
				t.Fatalf("workers=4 hist[%d] = %.17g, serial %.17g", i, gw.Hist[i], got.Hist[i])
			}
		}
	})
}
