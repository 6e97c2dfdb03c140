package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/featpyr"
	"repro/internal/fixed"
	"repro/internal/geom"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/svm"
)

// constScoreDetector returns a detector whose model scores every window
// identically (zero weights, positive bias), so a scan enumerates the full
// anchor grid and the output depends only on the coordinate mapping.
func constScoreDetector(t *testing.T, cfg Config) *Detector {
	t.Helper()
	model := &svm.Model{W: make([]float64, cfg.DescriptorLen()), B: 1}
	d, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestScanLevelRowsScalesAxesIndependently(t *testing.T) {
	cfg := DefaultConfig()
	d := constScoreDetector(t, cfg)
	fm := &hog.FeatureMap{
		BlocksX:  20,
		BlocksY:  40,
		BlockLen: cfg.HOG.BlockLen(),
		Cfg:      cfg.HOG,
	}
	fm.Feat = make([]float64, fm.BlocksX*fm.BlocksY*fm.BlockLen)
	wbx, wby := cfg.windowBlocks() // 8 x 16
	rows := fm.BlocksY - wby + 1
	cols := fm.BlocksX - wbx + 1
	out, err := d.scanLevelRows(context.Background(), pyrLevel{fm: fm, sx: 1.5, sy: 2.0}, 0, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != rows*cols {
		t.Fatalf("scanned %d windows, want %d", len(out), rows*cols)
	}
	// Raster order: first window anchors at block (0,0), last at
	// (cols-1, rows-1). X coordinates must scale by 1.5 and Y by 2.0; the
	// old single-factor mapping scaled Y by the X ratio.
	cell := cfg.HOG.CellSize
	wantFirst := geom.XYWH(0, 0, cfg.WindowW, cfg.WindowH).ScaleXY(1.5, 2.0)
	wantLast := geom.XYWH((cols-1)*cell, (rows-1)*cell, cfg.WindowW, cfg.WindowH).ScaleXY(1.5, 2.0)
	if out[0].Box != wantFirst {
		t.Errorf("first box %v, want %v", out[0].Box, wantFirst)
	}
	if got := out[len(out)-1].Box; got != wantLast {
		t.Errorf("last box %v, want %v", got, wantLast)
	}
	if got := out[len(out)-1].Box.Min.Y; got != (rows-1)*cell*2 {
		t.Errorf("last box Min.Y = %d, want %d (Y must use the Y factor)", got, (rows-1)*cell*2)
	}
}

func TestDetectRawNonSquareFrameStaysInFrame(t *testing.T) {
	// On a tall frame the per-level rounding makes the Y ratio differ from
	// the X ratio. The old single-factor mapping pushed bottom detections
	// past the frame edge; per-axis mapping keeps every box inside and
	// places the bottom-right anchor of each level exactly.
	frameW, frameH := 256, 384
	frame := imgproc.NewGray(frameW, frameH)
	bounds := geom.XYWH(0, 0, frameW, frameH)
	for _, mode := range []PyramidMode{FeaturePyramid, FeaturePyramidChained, ImagePyramid} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.MaxScales = 3
		cfg.Threshold = -1 // bias is 1: keep every window
		cfg.Workers = 1
		d := constScoreDetector(t, cfg)
		raw, err := d.DetectRaw(frame)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for _, dd := range raw {
			if !bounds.ContainsRect(dd.Box) {
				t.Fatalf("%v: box %v outside %dx%d frame", mode, dd.Box, frameW, frameH)
			}
		}
		if mode == FeaturePyramid {
			// Level 2 of the 32x48-block base map: grids round to 26x40,
			// so sx = 32/26 and sy = 48/40 differ. The bottom-right anchor
			// (block 18, 24) must map with each axis's own ratio.
			want := geom.XYWH(18*8, 24*8, cfg.WindowW, cfg.WindowH).ScaleXY(32.0/26.0, 48.0/40.0)
			found := false
			for _, dd := range raw {
				if dd.Box == want {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%v: bottom-right level-2 box %v missing", mode, want)
			}
		}
	}
}

func TestDetectNonSquarePedestrianNearBottom(t *testing.T) {
	det, g := testDetector(t)
	// Tall frame, pedestrian larger than the window and near the bottom:
	// exercises deep-level Y mapping on a non-square frame.
	frameW, frameH, pedH := 256, 512, 154
	spec := g.NewSpec(false)
	frame := g.Render(spec, frameW, frameH)
	scale := float64(pedH) / float64(dataset.WindowH)
	pw := int(float64(dataset.WindowW)*scale + 0.5)
	ph := int(float64(dataset.WindowH)*scale + 0.5)
	pspec := g.NewSpec(true)
	pspec.Pose.CenterXFrac = 0.5
	pspec.Pose.HeightFrac = 0.85
	win := g.Render(pspec, pw, ph)
	x, y := (frameW-pw)/2, frameH-ph-24
	imgproc.Paste(frame, win, x, y, -1)
	truth := geom.XYWH(x, y, pw, ph)
	for _, mode := range []PyramidMode{ImagePyramid, FeaturePyramid} {
		cfg := det.Config()
		cfg.Mode = mode
		d2, err := NewDetector(det.Model(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dets, err := d2.Detect(frame)
		if err != nil {
			t.Fatal(err)
		}
		best, bestIoU := geom.Rect{}, 0.0
		for _, dd := range dets {
			if iou := geom.IoU(dd.Box, truth); iou > bestIoU {
				best, bestIoU = dd.Box, iou
			}
		}
		if bestIoU < 0.4 {
			t.Errorf("%v: best IoU %.2f for pedestrian near bottom", mode, bestIoU)
			continue
		}
		// The match must be tight vertically as well as horizontally.
		dx := abs(best.Center().X - truth.Center().X)
		dy := abs(best.Center().Y - truth.Center().Y)
		if dx > 24 || dy > 24 {
			t.Errorf("%v: center offset (%d,%d) from truth %v, got %v", mode, dx, dy, truth, best)
		}
	}
}

func TestScoreMapsFollowDetectorMode(t *testing.T) {
	det, g := testDetector(t)
	frame, _ := sceneWithPedestrian(g, 320, 256, 128)
	for _, mode := range []PyramidMode{ImagePyramid, FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed, OctavePyramid} {
		cfg := det.Config()
		cfg.Mode = mode
		cfg.MaxScales = 3
		cfg.Threshold = -1e9 // keep every window
		cfg.NMSOverlap = 0
		d2, err := NewDetector(det.Model(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		maps, err := d2.ScoreMaps(frame)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		raw, err := d2.DetectRaw(frame)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// The maps must cover exactly the windows the detector scans...
		total := 0
		for _, sm := range maps {
			total += len(sm.Scores)
		}
		if total != len(raw) {
			t.Errorf("%v: score maps hold %d windows, detector scanned %d", mode, total, len(raw))
		}
		// ...and score them through the same pyramid: the peak must equal
		// the top detection bit for bit.
		peak := math.Inf(-1)
		for _, sm := range maps {
			if _, _, s := sm.Max(); s > peak {
				peak = s
			}
		}
		if len(raw) == 0 || peak != raw[0].Score {
			t.Errorf("%v: score-map peak %v != top detection %v", mode, peak, raw[0].Score)
		}
	}
}

// TestParallelSerialIdenticalDetections: every stage of the hot path — the
// HOG front end, the pyramid resampling and the scan — splits its work by
// rows over the workers, and no split may change a bit of the output, in
// any pyramid mode.
func TestParallelSerialIdenticalDetections(t *testing.T) {
	det, g := testDetector(t)
	scene, err := g.MakeScene(dataset.DefaultSceneConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []PyramidMode{ImagePyramid, FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed, OctavePyramid} {
		cfg := det.Config()
		cfg.Mode = mode
		cfg.MaxScales = 4
		cfg.Threshold = -2 // plenty of detections either side of NMS
		var want []eval.Detection
		for _, workers := range []int{1, 2, 3, 4, 8} {
			cfg.Workers = workers
			d, err := NewDetector(det.Model(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Detect(scene.Frame)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			if workers == 1 {
				want = got
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%v: workers=1 and workers=%d disagree (%d vs %d detections)", mode, workers, len(want), len(got))
			}
		}
	}
}

func TestFixedPyramidScalerErrorPropagates(t *testing.T) {
	det, g := testDetector(t)
	frame, _ := sceneWithPedestrian(g, 256, 256, 128)
	cfg := det.Config()
	cfg.Mode = FeaturePyramidFixed
	cfg.MaxScales = 2
	// WeightFrac 0 is rejected by the scaler: a real configuration error,
	// not the expected too-small pyramid termination. It must surface, not
	// silently truncate the pyramid to one level.
	cfg.Fixed = &featpyr.FixedScaler{FeatFmt: fixed.Q(0, 15), WeightFrac: 0}
	d2, err := NewDetector(det.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.DetectRaw(frame); err == nil {
		t.Error("broken fixed scaler should error, not truncate the pyramid")
	}
	if _, err := d2.ScoreMaps(frame); err == nil {
		t.Error("ScoreMaps should propagate the fixed scaler error too")
	}
}

func TestConfigValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative worker count should fail validation")
	}
}
