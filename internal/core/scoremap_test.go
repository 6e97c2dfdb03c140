package core

import (
	"math"
	"testing"

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
