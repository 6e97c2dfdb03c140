package svm

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzNewCascade throws arbitrary weight vectors — including NaN/Inf bit
// patterns and degenerate all-zero stages — at the stage partitioner. The
// invariant is total: construction either returns an error or yields
// structurally sound tables (Order a permutation ranked by descending
// RowBound, every RowBound finite and non-negative). A calibration's
// stage-indexed floors are valid only under this schedule, so a malformed
// table is a silent-correctness bug, not a cosmetic one.
func FuzzNewCascade(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(3), []byte{})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	// NaN and +Inf bit patterns.
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(uint8(2), uint8(2), uint8(2), nan)
	inf := make([]byte, 8)
	binary.LittleEndian.PutUint64(inf, math.Float64bits(math.Inf(1)))
	f.Add(uint8(3), uint8(1), uint8(4), inf)
	// Huge finite magnitudes (overflow candidates for the row masses).
	big := make([]byte, 8)
	binary.LittleEndian.PutUint64(big, math.Float64bits(math.MaxFloat64))
	f.Add(uint8(8), uint8(4), uint8(8), big)

	f.Fuzz(func(t *testing.T, rows, cols, blockLen uint8, raw []byte) {
		r := int(rows%8) + 1
		c := int(cols%4) + 1
		bl := int(blockLen%8) + 1
		w := make([]float64, r*c*bl)
		for i := range w {
			if len(raw) >= 8 {
				w[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(i*8)%(len(raw)-7):]))
			}
		}
		m := &Model{W: w}
		casc, err := NewCascade(m, c, r, bl)
		if err != nil {
			return
		}
		if casc == nil {
			t.Fatal("nil cascade and nil error")
		}
		if casc.Rows != r || casc.Cols != c || casc.BlockLen != bl {
			t.Fatalf("geometry %d/%d/%d, want %d/%d/%d", casc.Rows, casc.Cols, casc.BlockLen, r, c, bl)
		}
		if len(casc.Order) != r || len(casc.RowBound) != r {
			t.Fatalf("table lengths %d/%d for %d rows", len(casc.Order), len(casc.RowBound), r)
		}
		seen := make([]bool, r)
		for k, row := range casc.Order {
			if row < 0 || int(row) >= r || seen[row] {
				t.Fatalf("Order not a permutation: %v", casc.Order)
			}
			seen[row] = true
			if b := casc.RowBound[row]; !isFinite(b) || b < 0 {
				t.Fatalf("row bound %d = %g", row, b)
			}
			if k > 0 && casc.RowBound[casc.Order[k-1]] < casc.RowBound[row] {
				t.Fatalf("stage order not by descending bound: %v / %v", casc.Order, casc.RowBound)
			}
		}
	})
}
