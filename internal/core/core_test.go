package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/svm"
)

// trainedDetector lazily trains one shared small model for all tests.
var (
	trainOnce  sync.Once
	sharedDet  *Detector
	sharedErr  error
	sharedGen  *dataset.Generator
	sharedCfg  Config
	sharedOpts TrainOptions
)

// testDetector returns the shared trained model plus a FRESH generator for
// the calling test to render scenes from. Handing out the training
// generator would leak RNG state between tests — what each test renders
// would depend on which tests ran before it, and with -shuffle=on the
// scenes (and therefore assertion outcomes) would vary with test order.
func testDetector(t *testing.T) (*Detector, *dataset.Generator) {
	t.Helper()
	trainOnce.Do(func() {
		sharedGen = dataset.New(1001)
		sharedCfg = DefaultConfig()
		sharedOpts = DefaultTrainOptions()
		set := sharedGen.NewSpecSet(150, 450)
		rendered, err := sharedGen.RenderAt(set, 1.0)
		if err != nil {
			sharedErr = err
			return
		}
		sharedDet, sharedErr = Train(rendered, sharedCfg, sharedOpts)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedDet, dataset.New(1002)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	c.WindowW = 63 // not a multiple of the cell size
	if err := c.Validate(); err == nil {
		t.Error("non-cell-aligned window should fail validation")
	}
	c = DefaultConfig()
	c.ScaleStep = 1.0
	if err := c.Validate(); err == nil {
		t.Error("unit scale step should fail validation")
	}
	c = DefaultConfig()
	c.WindowW = 4
	if err := c.Validate(); err == nil {
		t.Error("sub-cell window should fail validation")
	}
	for _, m := range []PyramidMode{PyramidMode(-1), OctavePyramid + 1} {
		c = DefaultConfig()
		c.Mode = m
		if err := c.Validate(); err == nil {
			t.Errorf("unknown mode %v should fail validation", m)
		}
	}
	for _, lambda := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c = DefaultConfig()
		c.Scale.Lambda = lambda
		if err := c.Validate(); err == nil {
			t.Errorf("scale lambda %v should fail validation", lambda)
		}
	}
}

func TestDescriptorLen(t *testing.T) {
	if got := DefaultConfig().DescriptorLen(); got != 4608 {
		t.Errorf("descriptor length %d, want 4608", got)
	}
}

func TestNewDetectorChecksModel(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewDetector(nil, cfg); err == nil {
		t.Error("nil model should error")
	}
	short := &svm.Model{W: make([]float64, 10)}
	if _, err := NewDetector(short, cfg); err == nil {
		t.Error("wrong-dimension model should error")
	}
	ok := &svm.Model{W: make([]float64, cfg.DescriptorLen())}
	if _, err := NewDetector(ok, cfg); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	// A bad mode or lambda fails here, not on every frame at detect time.
	bad := cfg
	bad.Mode = PyramidMode(9)
	if _, err := NewDetector(ok, bad); err == nil {
		t.Error("unknown pyramid mode should fail NewDetector")
	}
	bad = cfg
	bad.Mode = OctavePyramid
	bad.Scale.Lambda = math.NaN()
	if _, err := NewDetector(ok, bad); err == nil {
		t.Error("NaN octave lambda should fail NewDetector")
	}
	// A NaN epsilon would score every window NaN, and NaN never falls at
	// or below the threshold, so every window would be a detection.
	bad = cfg
	bad.HOG.Epsilon = math.NaN()
	if _, err := NewDetector(ok, bad); err == nil {
		t.Error("NaN HOG epsilon should fail NewDetector")
	}
}

func TestNMS(t *testing.T) {
	dets := []eval.Detection{
		{Box: geom.XYWH(0, 0, 64, 128), Score: 1.0},
		{Box: geom.XYWH(4, 4, 64, 128), Score: 0.9},   // overlaps #0 heavily
		{Box: geom.XYWH(200, 0, 64, 128), Score: 0.8}, // separate
	}
	out := NMS(dets, 0.3)
	if len(out) != 2 {
		t.Fatalf("NMS kept %d, want 2", len(out))
	}
	if out[0].Score != 1.0 || out[1].Score != 0.8 {
		t.Errorf("NMS kept wrong detections: %+v", out)
	}
	if got := NMS(nil, 0.3); got != nil {
		t.Error("NMS(nil) should be nil")
	}
	// The input is not mutated.
	if dets[2].Score != 0.8 {
		t.Error("NMS mutated its input")
	}
}

func TestNMSKeepsAllWhenDisjoint(t *testing.T) {
	var dets []eval.Detection
	for i := 0; i < 5; i++ {
		dets = append(dets, eval.Detection{Box: geom.XYWH(i*200, 0, 64, 128), Score: float64(i)})
	}
	out := NMS(dets, 0.3)
	if len(out) != 5 {
		t.Fatalf("NMS dropped disjoint boxes: kept %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score {
			t.Fatal("NMS output not sorted by score")
		}
	}
}

// sceneWithPedestrian builds a frame with one pedestrian of the given pixel
// height pasted onto clutter, returning the frame and the figure's box.
func sceneWithPedestrian(g *dataset.Generator, frameW, frameH, pedH int) (*imgproc.Gray, geom.Rect) {
	spec := g.NewSpec(false)
	frame := g.Render(spec, frameW, frameH)
	// Render a pedestrian window scaled so the figure is pedH tall, then
	// paste it.
	scale := float64(pedH) / float64(dataset.WindowH)
	pw := int(float64(dataset.WindowW)*scale + 0.5)
	ph := int(float64(dataset.WindowH)*scale + 0.5)
	pspec := g.NewSpec(true)
	pspec.Pose.CenterXFrac = 0.5
	pspec.Pose.HeightFrac = 0.85
	win := g.Render(pspec, pw, ph)
	x := (frameW - pw) / 2
	y := (frameH - ph) / 2
	imgproc.Paste(frame, win, x, y, -1)
	return frame, geom.XYWH(x, y, pw, ph)
}

func TestDetectNativeScaleAllModes(t *testing.T) {
	det, g := testDetector(t)
	frame, truth := sceneWithPedestrian(g, 256, 256, 128)
	for _, mode := range []PyramidMode{ImagePyramid, FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed} {
		cfg := det.Config()
		cfg.Mode = mode
		d2, err := NewDetector(det.Model(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dets, err := d2.Detect(frame)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(dets) == 0 {
			t.Errorf("%v: pedestrian not detected", mode)
			continue
		}
		best := dets[0]
		if geom.IoU(best.Box, truth) < 0.4 {
			t.Errorf("%v: best box %v far from truth %v (IoU %.2f)",
				mode, best.Box, truth, geom.IoU(best.Box, truth))
		}
	}
}

func TestDetectScaledPedestrianFeaturePyramid(t *testing.T) {
	det, g := testDetector(t)
	// A pedestrian 1.2x the window height requires the second-or-so
	// pyramid level.
	frame, truth := sceneWithPedestrian(g, 320, 320, 154)
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
		found := false
		for _, dd := range dets {
			if geom.IoU(dd.Box, truth) >= 0.4 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%v: scaled pedestrian not found among %d detections", mode, len(dets))
		}
	}
}

func TestDetectTooSmallFrameErrors(t *testing.T) {
	det, _ := testDetector(t)
	tiny := imgproc.NewGray(32, 32)
	if _, err := det.Detect(tiny); err == nil {
		t.Error("frame smaller than the window should error")
	}
}

func TestScenarioClassifiersAgreeAtNativeScale(t *testing.T) {
	det, g := testDetector(t)
	img := g.Render(g.NewSpec(true), 64, 128)
	cfg := det.Config()
	a, err := ClassifyImageScaled(det.Model(), img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClassifyFeatureScaled(det.Model(), img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("at native scale both scenarios must agree: %v vs %v", a, b)
	}
}

func TestScenarioClassifiersCorrelateAtScale(t *testing.T) {
	det, g := testDetector(t)
	cfg := det.Config()
	// Scores of the two methods on the same up-scaled windows must agree
	// in sign for the most part (that is Table 1's premise).
	agree, total := 0, 0
	specs := g.NewSpecSet(15, 15)
	set, err := g.RenderAt(specs, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range set.Images {
		a, err := ClassifyImageScaled(det.Model(), img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ClassifyFeatureScaled(det.Model(), img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (a > 0) == (b > 0) {
			agree++
		}
		total++
	}
	if float64(agree)/float64(total) < 0.8 {
		t.Errorf("scenarios agree on only %d/%d windows at scale 1.2", agree, total)
	}
}

func TestClassifyFeatureScaledFixedClose(t *testing.T) {
	det, g := testDetector(t)
	cfg := det.Config()
	img := g.Render(g.NewSpec(true), 77, 154) // 1.2x window
	f, err := ClassifyFeatureScaled(det.Model(), img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ClassifyFeatureScaledFixed(det.Model(), img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-point datapath must track the float score closely relative to
	// the score scale.
	if math.Abs(f-q) > 0.25*math.Max(1, math.Abs(f)) {
		t.Errorf("fixed scenario score %v far from float %v", q, f)
	}
}

func TestExtractDescriptorsErrors(t *testing.T) {
	cfg := DefaultConfig()
	set := &dataset.Set{
		Images: []*imgproc.Gray{imgproc.NewGray(32, 32)},
		Labels: []int{1},
	}
	if _, err := ExtractDescriptors(set, cfg); err == nil {
		t.Error("wrong-size window should error")
	}
}

func TestTrainWithMining(t *testing.T) {
	g := dataset.New(77)
	cfg := DefaultConfig()
	opts := DefaultTrainOptions()
	opts.MineRounds = 1
	opts.MineMax = 50
	// Mining scenes: pedestrian-free clutter frames.
	for i := 0; i < 2; i++ {
		opts.MineScenes = append(opts.MineScenes, g.Render(g.NewSpec(false), 256, 256))
	}
	set, err := g.RenderAt(g.NewSpecSet(60, 180), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(set, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The mined detector must classify fresh windows decently.
	test, err := g.RenderAt(g.NewSpecSet(30, 90), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ExtractDescriptors(test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := svm.Accuracy(det.Model(), x, test.Labels); acc < 0.8 {
		t.Errorf("mined detector accuracy %.3f < 0.8", acc)
	}
}

func TestEvaluateOnScene(t *testing.T) {
	det, g := testDetector(t)
	scene, err := g.MakeScene(dataset.SceneConfig{
		W: 480, H: 360, Pedestrians: 2, MinHeight: 128, MaxHeight: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.EvaluateOnScene(scene, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TP+res.FN != len(scene.Truth) {
		t.Errorf("TP+FN = %d, truth = %d", res.TP+res.FN, len(scene.Truth))
	}
	t.Logf("scene eval: %+v (truth %d)", res, len(scene.Truth))
}

func TestPyramidModeString(t *testing.T) {
	modes := []PyramidMode{ImagePyramid, FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed, OctavePyramid, PyramidMode(9)}
	for _, m := range modes {
		if m.String() == "" {
			t.Errorf("mode %d has empty string", int(m))
		}
	}
}

// TestParsePyramidMode maps every mode's short name back to the mode,
// covers every mode once, and rejects names of no mode.
func TestParsePyramidMode(t *testing.T) {
	seen := map[PyramidMode]bool{}
	for _, c := range []struct {
		name string
		want PyramidMode
	}{
		{"image", ImagePyramid},
		{"feature", FeaturePyramid},
		{"chained", FeaturePyramidChained},
		{"fixed", FeaturePyramidFixed},
		{"octave", OctavePyramid},
	} {
		got, err := ParsePyramidMode(c.name)
		if err != nil || got != c.want {
			t.Errorf("ParsePyramidMode(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
		seen[got] = true
	}
	for m := ImagePyramid; m <= OctavePyramid; m++ {
		if !seen[m] {
			t.Errorf("mode %v has no short name", m)
		}
	}
	for _, name := range []string{"", "pyramid", "Image", "octave ", "image-pyramid"} {
		if m, err := ParsePyramidMode(name); err == nil {
			t.Errorf("ParsePyramidMode(%q) = %v, want an error", name, m)
		}
	}
}

func TestMaxScalesLimitsLevels(t *testing.T) {
	det, g := testDetector(t)
	frame, _ := sceneWithPedestrian(g, 512, 512, 128)
	cfg := det.Config()
	cfg.MaxScales = 1
	cfg.Threshold = -1e9 // keep every window so counts reflect coverage
	cfg.NMSOverlap = 0
	d1, err := NewDetector(det.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := d1.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxScales = 3
	d3, err := NewDetector(det.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	three, err := d3.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(three) <= len(one) {
		t.Errorf("3 scales produced %d windows, 1 scale %d", len(three), len(one))
	}
	// With one scale every box is window-sized.
	for _, dd := range one {
		if dd.Box.W() != 64 || dd.Box.H() != 128 {
			t.Fatalf("single-scale box %v not window sized", dd.Box)
		}
	}
}
