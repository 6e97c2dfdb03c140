package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/hog"
	"repro/internal/imgproc"
)

func TestScoreMapsPeakAtPedestrian(t *testing.T) {
	det, g := testDetector(t)
	frame, truth := sceneWithPedestrian(g, 256, 256, 128)
	maps, err := det.ScoreMaps(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) == 0 {
		t.Fatal("no score maps")
	}
	// The native level's peak must sit at the pedestrian's anchor cell.
	sm := maps[0]
	if sm.Scale != 1 {
		t.Fatalf("first level scale %v", sm.Scale)
	}
	x, y, score := sm.Max()
	cell := det.Config().HOG.CellSize
	wantX, wantY := truth.Min.X/cell, truth.Min.Y/cell
	if abs(x-wantX) > 1 || abs(y-wantY) > 1 {
		t.Errorf("peak at (%d,%d), want near (%d,%d)", x, y, wantX, wantY)
	}
	if score <= 0 {
		t.Errorf("peak score %.3f should be positive", score)
	}
	// Levels shrink with scale.
	for i := 1; i < len(maps); i++ {
		if maps[i].W >= maps[i-1].W && maps[i].H >= maps[i-1].H {
			t.Fatal("levels must shrink")
		}
	}
}

// staircaseRects are regions on a 200x280 frame whose level-0 anchor
// spans are 1, 2, ..., 17 anchors wide, one window row each, beside a
// narrow full-height column on the right; coarser levels merge them into
// spans of other widths, several to a row.
func staircaseRects() []geom.Rect {
	var rects []geom.Rect
	for i := 1; i <= 17; i++ {
		// Window centers of level-0 anchors sit at x = 32 + 8*bx and
		// y = 64 + 8*by.
		rects = append(rects, geom.XYWH(32, 64+8*(i-1), 8*i-1, 7))
	}
	return append(rects, geom.XYWH(176, 0, 20, 280))
}

// TestScoreMapsMatchScoreWindow checks every ScoreMaps anchor and every
// DetectRaw window of every pyramid mode, at workers 1 to 4, against an
// independent reference: the level rebuilt serially with buildLevels and
// scored one window at a time by hog.FeatureMap.ScoreWindow, plus the
// bias, bit for bit. It runs on both span-kernel dispatch paths and
// through the staged cascade kernel with floors that never reject, so
// each path behind the shared anchor scorer stays pinned to the scalar
// scorer. The frames are a 200x280 one (its coarsest levels come from the
// octave-2 feature map), a 128x256 crop whose coarse levels hold 1-6
// anchors per row, and the 200x280 frame restricted to staircaseRects,
// whose spans of every width from 1 to 17 make each anchor batch cross
// spans and window rows.
func TestScoreMapsMatchScoreWindow(t *testing.T) {
	det, g := testDetector(t)
	frame, _ := sceneWithPedestrian(g, 200, 280, 128)
	crop, _ := sceneWithPedestrian(g, 128, 256, 128)
	cases := []struct {
		name  string
		frame *imgproc.Gray
		rects []geom.Rect
	}{
		{"200x280", frame, nil},
		{"128x256", crop, nil},
		{"200x280/regions", frame, staircaseRects()},
	}
	defer hog.SetSpanKernel(hog.SetSpanKernel(true))
	for _, kernel := range []bool{true, false} {
		hog.SetSpanKernel(kernel)
		for ci, c := range cases {
			widths := map[int]bool{}
			for _, mode := range []PyramidMode{ImagePyramid, FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed, OctavePyramid} {
				for _, cascade := range []CascadeMode{CascadeOff, CascadeCalibrated} {
					cfg := det.Config()
					cfg.Mode = mode
					cfg.Cascade = cascade
					cfg.Threshold = -math.MaxFloat64 // DetectRaw keeps every scored window
					// Every split of the front end, the pyramid and the scan
					// must score each window like the serial reference.
					cfg.Workers = 1 + (int(mode)+int(cascade)*2+btoi(kernel)*3+ci)%4
					if c.rects != nil {
						cfg.Regions = NewRegionSet()
						cfg.Regions.Set(c.rects)
					}
					model := det.Model()
					if cascade == CascadeCalibrated {
						model = withFloors(model, cfg, -math.MaxFloat64)
					}
					d, err := NewDetector(model, cfg)
					if err != nil {
						t.Fatal(err)
					}
					maps, err := d.ScoreMaps(c.frame)
					if err != nil {
						t.Fatal(err)
					}
					raw, err := d.DetectRaw(c.frame)
					if err != nil {
						t.Fatal(err)
					}
					serialCfg := cfg
					serialCfg.Workers = 1
					ref, err := NewDetector(model, serialCfg)
					if err != nil {
						t.Fatal(err)
					}
					fs, err := ref.buildLevels(context.Background(), c.frame)
					if err != nil {
						t.Fatal(err)
					}
					levels := fs.levels
					ref.applyRegions(levels)
					if len(levels) != len(maps) {
						t.Fatalf("%s %v: %d levels, %d score maps", c.name, mode, len(levels), len(maps))
					}
					where := fmt.Sprintf("%s kernel=%v %v cascade=%v workers=%d", c.name, kernel, mode, cascade, cfg.Workers)
					wbx, wby := cfg.windowBlocks()
					cell := cfg.HOG.CellSize
					var want []eval.Detection
					for i, l := range levels {
						sm := maps[i]
						if sm.W != l.fm.BlocksX-wbx+1 || sm.H != l.fm.BlocksY-wby+1 || sm.Scale != l.sx || sm.ScaleY != l.sy {
							t.Fatalf("%s level %d: map %dx%d at (%v, %v) does not match the rebuilt level", where, i, sm.W, sm.H, sm.Scale, sm.ScaleY)
						}
						spans := l.spans
						if c.rects == nil {
							spans = []anchorSpan{{bx0: 0, bx1: sm.W, by0: 0, by1: sm.H}}
						}
						for _, sp := range spans {
							widths[sp.bx1-sp.bx0] = true
						}
						for y := 0; y < sm.H; y++ {
							for x := 0; x < sm.W; x++ {
								want1 := math.Inf(-1)
								for _, sp := range spans {
									if x >= sp.bx0 && x < sp.bx1 && y >= sp.by0 && y < sp.by1 {
										s, ok := l.fm.ScoreWindow(model.W, x, y, wbx, wby)
										if !ok {
											t.Fatalf("%s level %d: anchor (%d, %d) does not fit", where, i, x, y)
										}
										want1 = s + model.B
										box := geom.XYWH(x*cell, y*cell, cfg.WindowW, cfg.WindowH).ScaleXY(l.sx, l.sy)
										want = append(want, eval.Detection{Box: box, Score: want1})
									}
								}
								if got := sm.At(x, y); math.Float64bits(got) != math.Float64bits(want1) {
									t.Fatalf("%s level %d anchor (%d, %d): ScoreMaps %v, ScoreWindow %v",
										where, i, x, y, got, want1)
								}
							}
						}
					}
					ref.arena.put(fs)
					sortByScore(want)
					if len(raw) != len(want) {
						t.Fatalf("%s: DetectRaw kept %d windows, the reference %d", where, len(raw), len(want))
					}
					for i := range raw {
						if raw[i].Box != want[i].Box || math.Float64bits(raw[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("%s: DetectRaw window %d is %+v, the reference %+v", where, i, raw[i], want[i])
						}
					}
				}
			}
			if c.rects != nil {
				for w := 1; w <= 17; w++ {
					if !widths[w] {
						t.Errorf("%s: no span is %d anchors wide (widths %v)", c.name, w, widths)
					}
				}
			}
		}
	}
}

func TestScoreMapToImage(t *testing.T) {
	sm := &ScoreMap{W: 2, H: 2, Scores: []float64{-1, 0, 0, 1}}
	img := sm.ToImage()
	if img.At(0, 0) != 0 || img.At(1, 1) != 255 {
		t.Errorf("heat extremes = %d, %d", img.At(0, 0), img.At(1, 1))
	}
	// Constant maps render grey, not NaN garbage.
	flat := &ScoreMap{W: 2, H: 1, Scores: []float64{3, 3}}
	fi := flat.ToImage()
	if fi.At(0, 0) != 128 {
		t.Errorf("flat map pixel %d, want 128", fi.At(0, 0))
	}
	// Unscored (-Inf) anchors render black and stay out of the scaling.
	pruned := &ScoreMap{W: 3, H: 1, Scores: []float64{math.Inf(-1), 2, 4}}
	pi := pruned.ToImage()
	if pi.At(0, 0) != 0 || pi.At(1, 0) != 0 || pi.At(2, 0) != 255 {
		t.Errorf("map with -Inf anchors = %d, %d, %d, want 0, 0, 255", pi.At(0, 0), pi.At(1, 0), pi.At(2, 0))
	}
}

func TestScoreMapsTinyFrameErrors(t *testing.T) {
	det, _ := testDetector(t)
	if _, err := det.ScoreMaps(imgproc.NewGray(16, 16)); err == nil {
		t.Error("tiny frame should error")
	}
}

func TestScoreMapMaxAgainstBruteForce(t *testing.T) {
	sm := &ScoreMap{W: 3, H: 2, Scores: []float64{0.1, -2, 3.5, 0, 3.5, 1}}
	x, y, s := sm.Max()
	if s != 3.5 {
		t.Errorf("max score %v", s)
	}
	// First occurrence in scan order wins.
	if x != 2 || y != 0 {
		t.Errorf("max at (%d,%d), want (2,0)", x, y)
	}
	if math.IsInf(s, -1) {
		t.Error("empty-like max")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
