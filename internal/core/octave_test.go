package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/imgproc"
)

// octaveDetector returns the shared model as an OctavePyramid detector with
// the given power-law correction; edit adjusts the config first.
func octaveDetector(t *testing.T, det *Detector, lambda float64, edit func(*Config)) *Detector {
	t.Helper()
	cfg := det.Config()
	cfg.Mode = OctavePyramid
	cfg.Scale.Lambda = lambda
	if edit != nil {
		edit(&cfg)
	}
	d, err := NewDetector(det.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOctavePyramidNativeScale(t *testing.T) {
	det, g := testDetector(t)
	frame, truth := sceneWithPedestrian(g, 256, 256, 128)
	dets, err := octaveDetector(t, det, 0, nil).Detect(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("octave detector found nothing")
	}
	if geom.IoU(dets[0].Box, truth) < 0.4 {
		t.Errorf("best box %v far from truth %v", dets[0].Box, truth)
	}
}

func TestOctavePyramidLargePedestrianUsesSecondOctave(t *testing.T) {
	det, g := testDetector(t)
	// A pedestrian ~2.1x the window height: beyond the first octave, so
	// it can only be found via the octave-2 feature map.
	frame, truth := sceneWithPedestrian(g, 512, 560, 270)
	dets, err := octaveDetector(t, det, 0.1, nil).Detect(frame)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dets {
		if geom.IoU(d.Box, truth) >= 0.35 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("large pedestrian missed among %d detections", len(dets))
	}
}

func TestOctavePyramidAgreesWithFeaturePyramid(t *testing.T) {
	det, g := testDetector(t)
	frame, truth := sceneWithPedestrian(g, 320, 320, 140)
	a, err := octaveDetector(t, det, 0, nil).Detect(frame)
	if err != nil {
		t.Fatal(err)
	}
	b, err := det.Detect(frame) // FeaturePyramid mode
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("octave %d dets, feature %d dets", len(a), len(b))
	}
	// Both must find the same pedestrian.
	if geom.IoU(a[0].Box, truth) < 0.35 || geom.IoU(b[0].Box, truth) < 0.35 {
		t.Errorf("top detections disagree with truth: octave %v, feature %v (truth %v)",
			a[0].Box, b[0].Box, truth)
	}
}

func TestOctavePyramidTooSmallFrame(t *testing.T) {
	det, _ := testDetector(t)
	if _, err := octaveDetector(t, det, 0, nil).Detect(imgproc.NewGray(16, 16)); err == nil {
		t.Error("tiny frame should error")
	}
}

func TestOctavePyramidMaxScales(t *testing.T) {
	det, g := testDetector(t)
	frame, _ := sceneWithPedestrian(g, 512, 512, 128)
	d1 := octaveDetector(t, det, 0, func(cfg *Config) {
		cfg.MaxScales = 1
		cfg.Threshold = -1e9
		cfg.NMSOverlap = 0
	})
	one, err := d1.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	// With one scale every box is window-sized at scale 1.
	for _, dd := range one {
		if dd.Box.W() != 64 || dd.Box.H() != 128 {
			t.Fatalf("single-scale octave box %v not window sized", dd.Box)
		}
	}
}
