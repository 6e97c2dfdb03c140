package hog

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/imgproc"
)

// useCellKernel sets the cell-kernel dispatch for the rest of the test.
func useCellKernel(t testing.TB, on bool) {
	prev := cellKernel.Load()
	cellKernel.Store(on)
	t.Cleanup(func() { cellKernel.Store(prev) })
}

// cellKernelModes is the dispatch sweep of the bit-identity tests: the
// scalar pass always, the vector one where the CPU has it.
func cellKernelModes(t testing.TB) []bool {
	if !haveCellKernel {
		t.Log("no AVX2 on this CPU: only the scalar cell path runs")
		return []bool{false}
	}
	return []bool{false, true}
}

// withCellKernel runs f with the cell kernel switched on or off, and
// restores the dispatch when f returns or fails the test.
func withCellKernel(on bool, f func()) {
	prev := cellKernel.Swap(on)
	defer cellKernel.Store(prev)
	f()
}

// cellsWithKernel computes img's cell grid on a fresh scratch with the
// cell kernel switched on or off for the call.
func cellsWithKernel(t testing.TB, on bool, img *imgproc.Gray, cfg Config, workers int) []float64 {
	t.Helper()
	var g *CellGrid
	var err error
	withCellKernel(on, func() { g, err = ComputeCellsInto(context.Background(), img, cfg, NewScratch(), workers) })
	if err != nil {
		t.Fatal(err)
	}
	return g.Hist
}

// sameBits fails unless a and b are equal bit for bit.
func sameBits(t testing.TB, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: [%d] = %.17g (%#x), want %.17g (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestVoteChunkLayout pins the offsets vote_amd64.s stores a voteChunk's
// fields at, and the lane-broadcast constant block it reads.
func TestVoteChunkLayout(t *testing.T) {
	var ch voteChunk
	var bt binTable
	got := []uintptr{unsafe.Offsetof(ch.b1), unsafe.Offsetof(ch.w0), unsafe.Offsetof(ch.w1), unsafe.Sizeof(ch), unsafe.Sizeof(bt.kc)}
	want := []uintptr{512, 1024, 1536, 2048, 14 * 32}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("voteChunk b1, w0, w1 offsets, size and kc size %v, want %v", got, want)
	}
}

// TestBinRunMatchesBin pins pass 1 of the vector vote to binTable.bin, the
// specification copy of vote, bit for bit: for every pixel with a non-zero
// gradient the bin pair must be bin's and the weights exactly
// Sqrt(m2)*(1-alpha) and Sqrt(m2)*alpha; a zero-gradient pixel must carry
// +0 weights and an in-range bin pair. The gradients cover zero, the
// TestBinThresholdTies ties (each threshold direction, scaled by 4 and
// negated), the bin-edge direction of every k, both axes, the plain and
// gamma luminance LUT values, and random ones, in runs of 4 .. chunkLen
// pixels.
func TestBinRunMatchesBin(t *testing.T) {
	if !haveCellKernel {
		t.Skip("no AVX2 on this CPU: the vector cell kernel never runs")
	}
	rng := rand.New(rand.NewSource(23))
	for _, bins := range []int{6, 7, 9, 12} {
		var bt binTable
		bt.init(bins)
		// A case is one pixel's gx and its above and below luminances.
		// Cases are laid out so that every gradient is exact: pixel i with
		// i%4 < 2 reads here[i] = 0 and here[i+2] = gx, and pixel i+2 then
		// reads here[i+2] and here[i+4] = 0, so it gets -gx; it also gets
		// the case's above and below swapped, which negates gy exactly.
		// Each case therefore also runs as its negation, the same unsigned
		// orientation.
		type grad struct{ gx, a, b float64 }
		var cases []grad
		add := func(gx, gy float64) {
			if gy >= 0 {
				cases = append(cases, grad{gx, 0, gy})
			} else {
				cases = append(cases, grad{gx, -gy, 0})
			}
		}
		add(0, 0)
		for b := 0; b < bins; b++ {
			add(bt.cos[b], bt.sin[b])
			add(4*bt.cos[b], 4*bt.sin[b])
		}
		for k := 0; k <= bins; k++ {
			add(bt.cosE[k], bt.sinE[k])
		}
		for _, g := range [][2]float64{{1, 0}, {0, 1}, {1, 1}, {-1, 1}, {0, 0.5}} {
			add(g[0], g[1])
		}
		for _, lut := range []*[256]float64{&lumLUT, &lumLUTGamma} {
			for v := 0; v < 256; v++ {
				cases = append(cases,
					grad{lut[v], lut[rng.Intn(256)], lut[rng.Intn(256)]},
					grad{0, lut[v], lut[rng.Intn(256)]},
					grad{lut[v], lut[v], lut[v]}) // gy = 0
			}
		}
		for i := 0; i < 256; i++ {
			cases = append(cases, grad{rng.Float64() - 0.5, rng.Float64(), rng.Float64()})
		}
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })

		for len(cases) > 0 {
			n := 4 * (1 + rng.Intn(chunkLen/4))
			above := make([]float64, n)
			below := make([]float64, n)
			here := make([]float64, n+2)
			for i := 0; i < n; i++ {
				if i%4 >= 2 || len(cases) == 0 {
					continue
				}
				c := cases[0]
				cases = cases[1:]
				here[i+2] = c.gx
				above[i], below[i] = c.a, c.b
				if i+2 < n {
					above[i+2], below[i+2] = c.b, c.a
				}
			}
			var ch voteChunk
			binRun(&above[0], &below[0], &here[0], n, &bt.thr[0], bins, &bt.cosE[0], &bt.sinE[0], &bt.kc, &ch)
			for i := 0; i < n; i++ {
				gx := here[i+2] - here[i]
				gy := below[i] - above[i]
				label := fmt.Sprintf("bins=%d n=%d pixel %d (gx=%g gy=%g)", bins, n, i, gx, gy)
				m2 := gx*gx + gy*gy
				if m2 == 0 {
					if math.Float64bits(ch.w0[i]) != 0 || math.Float64bits(ch.w1[i]) != 0 {
						t.Fatalf("%s: zero gradient weights %g, %g, want +0", label, ch.w0[i], ch.w1[i])
					}
					if ch.b0[i] < 0 || ch.b0[i] >= int64(bins) || ch.b1[i] < 0 || ch.b1[i] >= int64(bins) {
						t.Fatalf("%s: zero gradient bin pair (%d, %d) out of range", label, ch.b0[i], ch.b1[i])
					}
					continue
				}
				b0, b1, alpha := bt.bin(gx, gy)
				mag := math.Sqrt(m2)
				if ch.b0[i] != int64(b0) || ch.b1[i] != int64(b1) {
					t.Fatalf("%s: bin pair (%d, %d), want (%d, %d)", label, ch.b0[i], ch.b1[i], b0, b1)
				}
				sameBits(t, label+" weights", []float64{mag * (1 - alpha), mag * alpha}, []float64{ch.w0[i], ch.w1[i]})
			}
		}
	}
}

// TestVoteRunMatchesScalar pins voteRun (both passes plus the scalar tail)
// to the scalar interior loop bit for bit, on rows of every length 1 ..
// 2*chunkLen+5 and cell sizes that do and do not divide a chunk, for Bins 6,
// 7 and 9, plain and gamma luminance, with flat runs mixed in.
func TestVoteRunMatchesScalar(t *testing.T) {
	if !haveCellKernel {
		t.Skip("no AVX2 on this CPU: the vector cell kernel never runs")
	}
	rng := rand.New(rand.NewSource(29))
	for _, bins := range []int{6, 7, 9} {
		var bt binTable
		bt.init(bins)
		for _, lut := range []*[256]float64{&lumLUT, &lumLUTGamma} {
			for _, cell := range []int{8, 5, 3} {
				for w := 3; w <= 2*chunkLen+5; w++ {
					rows := make([]float64, 3*w)
					for i := range rows {
						if rng.Intn(3) == 0 {
							rows[i] = lut[128] // flat patches: zero gradients
						} else {
							rows[i] = lut[rng.Intn(256)]
						}
					}
					above, here, below := rows[:w], rows[w:2*w], rows[2*w:]
					cellsX := w / cell
					xEnd := min(cellsX*cell, w-1)
					if cellsX == 0 || xEnd <= 1 {
						continue
					}
					fc := fusedCtx{cell: cell, cellsX: cellsX, bins: bins, bt: &bt}
					want := make([]float64, cellsX*bins)
					got := make([]float64, cellsX*bins)
					fc.interiorCells(here, above, below, want, xEnd)
					fc.voteRun(here, above, below, got, 1, xEnd)
					sameBits(t, fmt.Sprintf("bins=%d cell=%d w=%d", bins, cell, w), want, got)
				}
			}
		}
	}
}

// BenchmarkCellKernel measures the cell histograms of a 640x480 and a
// 1920x1080 noise frame on both dispatch paths, at workers=1, through a
// scratch that one untimed frame has grown.
func BenchmarkCellKernel(b *testing.B) {
	cfg := DefaultConfig()
	for _, sz := range []struct {
		name string
		w, h int
	}{{"vga", 640, 480}, {"1080p", 1920, 1080}} {
		img := randomImage(sz.w, sz.h, 1)
		for _, on := range cellKernelModes(b) {
			b.Run(fmt.Sprintf("%s/kernel=%v", sz.name, on), func(b *testing.B) {
				useCellKernel(b, on)
				s := NewScratch()
				if _, err := ComputeCellsInto(context.Background(), img, cfg, s, 1); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ComputeCellsInto(context.Background(), img, cfg, s, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
