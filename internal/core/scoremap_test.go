package core

import (
	"context"
	"math"
	"testing"

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

// TestScoreMapsMatchScoreWindow checks every ScoreMaps anchor of every
// pyramid mode, at workers 1 to 4, against an independent reference: the
// level rebuilt serially with buildLevels and scored one window at a time
// by hog.FeatureMap.ScoreWindow, plus the bias, bit for bit. It runs on both span-kernel dispatch paths and
// through the staged cascade kernel with floors that never reject, so each
// path behind the shared span scorer stays pinned to the scalar scorer.
func TestScoreMapsMatchScoreWindow(t *testing.T) {
	det, g := testDetector(t)
	// 280 rows: the coarsest levels come from the octave-2 feature map.
	frame, _ := sceneWithPedestrian(g, 200, 280, 128)
	defer hog.SetSpanKernel(hog.SetSpanKernel(true))
	for _, kernel := range []bool{true, false} {
		hog.SetSpanKernel(kernel)
		for _, mode := range []PyramidMode{ImagePyramid, FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed, OctavePyramid} {
			for _, cascade := range []CascadeMode{CascadeOff, CascadeCalibrated} {
				cfg := det.Config()
				cfg.Mode = mode
				cfg.Cascade = cascade
				// Every split of the front end, the pyramid and the scan
				// must score each window like the serial reference.
				cfg.Workers = 1 + (int(mode)+int(cascade)*2+btoi(kernel)*3)%4
				model := det.Model()
				if cascade == CascadeCalibrated {
					model = withFloors(model, cfg, -math.MaxFloat64)
				}
				d, err := NewDetector(model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				maps, err := d.ScoreMaps(frame)
				if err != nil {
					t.Fatal(err)
				}
				serialCfg := cfg
				serialCfg.Workers = 1
				ref, err := NewDetector(model, serialCfg)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := ref.buildLevels(context.Background(), frame)
				if err != nil {
					t.Fatal(err)
				}
				levels := fs.levels
				if len(levels) != len(maps) {
					t.Fatalf("%v: %d levels, %d score maps", mode, len(levels), len(maps))
				}
				wbx, wby := cfg.windowBlocks()
				for i, l := range levels {
					sm := maps[i]
					if sm.W != l.fm.BlocksX-wbx+1 || sm.H != l.fm.BlocksY-wby+1 || sm.Scale != l.sx || sm.ScaleY != l.sy {
						t.Fatalf("%v level %d: map %dx%d at (%v, %v) does not match the rebuilt level", mode, i, sm.W, sm.H, sm.Scale, sm.ScaleY)
					}
					for y := 0; y < sm.H; y++ {
						for x := 0; x < sm.W; x++ {
							want, ok := l.fm.ScoreWindow(model.W, x, y, wbx, wby)
							if !ok {
								t.Fatalf("%v level %d: anchor (%d, %d) does not fit", mode, i, x, y)
							}
							want += model.B
							if got := sm.At(x, y); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("kernel=%v %v cascade=%v workers=%d level %d anchor (%d, %d): ScoreMaps %v, ScoreWindow %v",
									kernel, mode, cascade, cfg.Workers, i, x, y, got, want)
							}
						}
					}
				}
				ref.arena.put(fs)
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
