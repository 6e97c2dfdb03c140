package hog

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// spanTestMap fills a bx x by map of blockLen-long blocks with features
// that stress evaluation order: zeros, negatives, and magnitudes far apart
// enough that any reassociated sum rounds differently.
func spanTestMap(rng *rand.Rand, bx, by, blockLen int) *FeatureMap {
	fm := &FeatureMap{BlocksX: bx, BlocksY: by, BlockLen: blockLen}
	fm.Feat = make([]float64, bx*by*blockLen)
	for i := range fm.Feat {
		fm.Feat[i] = spanTestValue(rng)
	}
	return fm
}

func spanTestValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -rng.Float64()
	case 2:
		return rng.NormFloat64() * 1e100
	case 3:
		return rng.NormFloat64() * 1e-100
	default:
		return rng.NormFloat64()
	}
}

// useSpanKernel sets the dispatch for the rest of the test.
func useSpanKernel(t *testing.T, on bool) {
	prev := spanKernel.Load()
	spanKernel.Store(on)
	t.Cleanup(func() { spanKernel.Store(prev) })
}

// TestScoreSpanMatchesScoreWindow pins ScoreSpan to ScoreWindow bit for
// bit on both dispatch paths, over the shipped geometries (per-cell 8x16,
// rowLen 288; overlap 7x15, rowLen 252), a rowLen%4 != 0 geometry that
// runs the tail-into-s0 path, and one whose rows are shorter than a lane
// group, across span lengths 1..17 flush with the map's left and right
// edges.
func TestScoreSpanMatchesScoreWindow(t *testing.T) {
	geoms := []struct {
		name               string
		wbx, wby, blockLen int
	}{
		{"percell-8x16", 8, 16, 36},
		{"overlap-7x15", 7, 15, 36},
		{"tail-7x3x5", 7, 3, 5}, // BlockCells 1, Bins 5: rowLen 35
		{"short-1x2x3", 1, 2, 3},
	}
	const maxSpan = 17
	for _, kernel := range []bool{true, false} {
		if kernel && !haveSpanKernel {
			t.Log("no AVX2 on this CPU: only the fallback path runs")
			continue
		}
		for _, g := range geoms {
			t.Run(fmt.Sprintf("kernel=%v/%s", kernel, g.name), func(t *testing.T) {
				useSpanKernel(t, kernel)
				rng := rand.New(rand.NewSource(int64(g.wbx*1000 + g.blockLen)))
				fm := spanTestMap(rng, g.wbx+maxSpan+2, g.wby+3, g.blockLen)
				w := make([]float64, g.wbx*g.wby*g.blockLen)
				for i := range w {
					w[i] = spanTestValue(rng)
				}
				nx := fm.BlocksX - g.wbx + 1
				for n := 1; n <= maxSpan; n++ {
					for by := 0; by+g.wby <= fm.BlocksY; by++ {
						for _, bx0 := range []int{0, nx - n} {
							dst := make([]float64, n)
							if !fm.ScoreSpan(w, bx0, by, g.wbx, g.wby, dst) {
								t.Fatalf("span bx0=%d by=%d n=%d rejected", bx0, by, n)
							}
							for i, got := range dst {
								want, ok := fm.ScoreWindow(w, bx0+i, by, g.wbx, g.wby)
								if !ok {
									t.Fatalf("window (%d,%d) rejected", bx0+i, by)
								}
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("span bx0=%d by=%d n=%d window %d: got %x, ScoreWindow %x",
										bx0, by, n, i, got, want)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestScoreSpanRejectsBadInput checks that a span overhanging the map or
// a weight vector of the wrong length is refused without touching dst.
func TestScoreSpanRejectsBadInput(t *testing.T) {
	for _, kernel := range []bool{true, false} {
		if kernel && !haveSpanKernel {
			continue
		}
		t.Run(fmt.Sprintf("kernel=%v", kernel), func(t *testing.T) {
			useSpanKernel(t, kernel)
			fm := spanTestMap(rand.New(rand.NewSource(3)), 20, 20, 36)
			w := make([]float64, 8*16*36)
			nx := fm.BlocksX - 8 + 1 // 13 anchors per row
			dst := make([]float64, 9)
			sentinel := func() {
				for i := range dst {
					dst[i] = -42
				}
			}
			untouched := func() bool {
				for _, v := range dst {
					if v != -42 {
						return false
					}
				}
				return true
			}
			for _, bad := range []struct {
				name        string
				bx0, by, n  int
				wbx, wby    int
				weightsLong int
			}{
				{"right overhang", nx - 8, 0, 9, 8, 16, len(w)},
				{"bottom overhang", 0, 5, 9, 8, 16, len(w)},
				{"negative bx0", -1, 0, 9, 8, 16, len(w)},
				{"negative by", 0, -1, 9, 8, 16, len(w)},
				{"degenerate window", 0, 0, 9, 0, 16, len(w)},
				{"short weights", 0, 0, 9, 8, 16, len(w) - 1},
				{"empty span past edge", nx, 0, 0, 8, 16, len(w)},
			} {
				sentinel()
				if fm.ScoreSpan(w[:bad.weightsLong], bad.bx0, bad.by, bad.wbx, bad.wby, dst[:bad.n]) {
					t.Errorf("%s: accepted", bad.name)
				}
				if !untouched() {
					t.Errorf("%s: wrote dst", bad.name)
				}
			}
			sentinel()
			if !fm.ScoreSpan(w, nx-9, 4, 8, 16, dst) {
				t.Error("flush span rejected")
			}
		})
	}
}
