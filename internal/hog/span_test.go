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

// TestScoreSpanMatchesScoreWindow pins ScoreAnchors to ScoreWindow bit
// for bit on both dispatch paths, over the shipped geometries (per-cell
// 8x16, rowLen 288; overlap 7x15, rowLen 252), a rowLen%4 != 0 geometry
// that runs the tail-into-s0 path, and one whose rows are shorter than a
// lane group. Each geometry is scored on maps with 1-7 and 19 anchors per
// row, as every raster-order run of 1..17 anchors (runs that wrap across
// window rows, and short last groups), every whole row, the whole map at
// once, and lists with repeated anchors.
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
	const maxRun = 17
	for _, kernel := range []bool{true, false} {
		if kernel && !haveSpanKernel {
			t.Log("no AVX2 on this CPU: only the fallback path runs")
			continue
		}
		for _, g := range geoms {
			t.Run(fmt.Sprintf("kernel=%v/%s", kernel, g.name), func(t *testing.T) {
				useSpanKernel(t, kernel)
				rng := rand.New(rand.NewSource(int64(g.wbx*1000 + g.blockLen)))
				w := make([]float64, g.wbx*g.wby*g.blockLen)
				for i := range w {
					w[i] = spanTestValue(rng)
				}
				for _, nx := range []int{1, 2, 3, 4, 5, 6, 7, 19} {
					fm := spanTestMap(rng, g.wbx+nx-1, g.wby+3, g.blockLen)
					var all []Anchor
					want := map[Anchor]float64{}
					for y := 0; y+g.wby <= fm.BlocksY; y++ {
						for x := 0; x+g.wbx <= fm.BlocksX; x++ {
							a := Anchor{x, y}
							s, ok := fm.ScoreWindow(w, x, y, g.wbx, g.wby)
							if !ok {
								t.Fatalf("nx=%d: window %v rejected", nx, a)
							}
							all, want[a] = append(all, a), s
						}
					}
					check := func(what string, anchors []Anchor) {
						t.Helper()
						dst := make([]float64, len(anchors))
						if !fm.ScoreAnchors(w, g.wbx, g.wby, anchors, dst) {
							t.Fatalf("nx=%d %s %v: rejected", nx, what, anchors)
						}
						for i, a := range anchors {
							if math.Float64bits(dst[i]) != math.Float64bits(want[a]) {
								t.Fatalf("nx=%d %s %v: window %d %v got %x, ScoreWindow %x",
									nx, what, anchors, i, a, dst[i], want[a])
							}
						}
					}
					for n := 1; n <= maxRun; n++ {
						for i := 0; i+n <= len(all); i++ {
							check("run", all[i:i+n])
						}
					}
					for y := 0; y < len(all); y += nx {
						check("row", all[y:y+nx])
					}
					check("map", all)
					for n := 1; n <= maxRun; n++ {
						rep := make([]Anchor, n)
						for i := range rep {
							rep[i] = all[rng.Intn(min(len(all), 3))]
						}
						check("repeats", rep)
					}
				}
			})
		}
	}
}

// TestScoreSpanRejectsBadInput checks that an anchor list with a window
// overhanging the map, a weight vector of the wrong length or a dst of
// the wrong length is refused without touching dst.
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
			row := func(bx0, by, n int) []Anchor {
				a := make([]Anchor, n)
				for i := range a {
					a[i] = Anchor{bx0 + i, by}
				}
				return a
			}
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
				anchors     []Anchor
				n           int
				wbx, wby    int
				weightsLong int
			}{
				{"right overhang", row(nx-8, 0, 9), 9, 8, 16, len(w)},
				{"bottom overhang", row(0, 5, 9), 9, 8, 16, len(w)},
				{"negative x", row(-1, 0, 9), 9, 8, 16, len(w)},
				{"negative y", row(0, -1, 9), 9, 8, 16, len(w)},
				{"overhang after a wrap", append(row(nx-4, 0, 4), row(0, 5, 5)...), 9, 8, 16, len(w)},
				{"degenerate window", row(0, 0, 9), 9, 0, 16, len(w)},
				{"short weights", row(0, 0, 9), 9, 8, 16, len(w) - 1},
				{"short dst", row(0, 0, 9), 8, 8, 16, len(w)},
			} {
				sentinel()
				if fm.ScoreAnchors(w[:bad.weightsLong], bad.wbx, bad.wby, bad.anchors, dst[:bad.n]) {
					t.Errorf("%s: accepted", bad.name)
				}
				if !untouched() {
					t.Errorf("%s: wrote dst", bad.name)
				}
			}
			sentinel()
			if !fm.ScoreAnchors(w, 8, 16, row(nx-9, 4, 9), dst) {
				t.Error("flush row rejected")
			}
			if !fm.ScoreAnchors(w, 8, 16, nil, nil) {
				t.Error("empty list rejected")
			}
		})
	}
}
