package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/svm"
)

// cascadeDetector builds a detector over the given model with the given
// pyramid mode, cascade mode, and worker count.
func cascadeDetector(t *testing.T, model *svm.Model, mode PyramidMode, cm CascadeMode, workers int) *Detector {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Cascade = cm
	cfg.Workers = workers
	d, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameDetections asserts two detection lists are byte-identical: same
// length, same boxes, and bit-equal scores in the same order.
func sameDetections(t *testing.T, label string, want, got []eval.Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Box != want[i].Box {
			t.Fatalf("%s: detection %d box %v, want %v", label, i, got[i].Box, want[i].Box)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: detection %d score %v, want %v (bits differ)",
				label, i, got[i].Score, want[i].Score)
		}
	}
}

// withFloors returns a copy of model carrying a cascade calibration whose
// every stage floor is floor. -math.MaxFloat64 never rejects, so the
// calibrated scan must reproduce the dense scan bit for bit (the staged
// kernel's oracle); +math.MaxFloat64 rejects every window at stage one.
func withFloors(model *svm.Model, cfg Config, floor float64) *svm.Model {
	_, wby := cfg.windowBlocks()
	out := model.Clone()
	out.Calib = &svm.CascadeCalib{Stages: wby, Thresholds: make([]float64, wby)}
	for i := range out.Calib.Thresholds {
		out.Calib.Thresholds[i] = floor
	}
	return out
}

// calibratedModel fits soft-cascade floors for model on freshly rendered
// positives, exactly as pdtrain does, and returns a calibrated copy.
func calibratedModel(t *testing.T, model *svm.Model, g *dataset.Generator) *svm.Model {
	t.Helper()
	cfg := DefaultConfig()
	set, err := g.RenderAt(g.NewSpecSet(25, 0), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := ExtractDescriptors(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wbx, wby := cfg.windowBlocks()
	casc, err := svm.NewCascade(model, wbx, wby, cfg.HOG.BlockLen())
	if err != nil {
		t.Fatal(err)
	}
	const margin = 0.05
	floors, err := casc.Calibrate(model, pos, margin)
	if err != nil {
		t.Fatal(err)
	}
	out := model.Clone()
	out.Calib = &svm.CascadeCalib{Stages: wby, Margin: margin, Thresholds: floors}
	return out
}

// TestCascadeCalibratedSubset checks the opt-in lossy mode: calibrated
// detections are a subset of the dense scan's, each with a bit-identical
// score, and the mode is deterministic across worker counts. It also pins
// the constructor contract that calibrated mode demands a calibrated model.
func TestCascadeCalibratedSubset(t *testing.T) {
	det, g := testDetector(t)
	model := det.Model().Clone()
	cfg := DefaultConfig()

	// Fit floors on freshly rendered positives, exactly as pdtrain does.
	set, err := g.RenderAt(g.NewSpecSet(25, 0), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := ExtractDescriptors(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wbx, wby := cfg.windowBlocks()
	casc, err := svm.NewCascade(model, wbx, wby, cfg.HOG.BlockLen())
	if err != nil {
		t.Fatal(err)
	}
	const margin = 0.05
	floors, err := casc.Calibrate(model, pos, margin)
	if err != nil {
		t.Fatal(err)
	}
	model.Calib = &svm.CascadeCalib{Stages: wby, Margin: margin, Thresholds: floors}

	frame, _ := sceneWithPedestrian(dataset.New(1003), 320, 240, 128)
	dense := cascadeDetector(t, model, FeaturePyramid, CascadeOff, 1)
	want, err := dense.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[detIdentity]bool, len(want))
	for _, d := range want {
		byKey[detKey(d)] = true
	}

	cal1 := cascadeDetector(t, model, FeaturePyramid, CascadeCalibrated, 1)
	got, err := cal1.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > len(want) {
		t.Fatalf("calibrated found %d detections, dense only %d", len(got), len(want))
	}
	for i, d := range got {
		if !byKey[detKey(d)] {
			t.Fatalf("calibrated detection %d (%v score %v) absent from the dense scan", i, d.Box, d.Score)
		}
	}
	cal3 := cascadeDetector(t, model, FeaturePyramid, CascadeCalibrated, 3)
	got3, err := cal3.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, "calibrated w=1 vs w=3", got, got3)

	// Calibrated mode without an embedded calibration must fail loudly at
	// construction, not silently scan dense.
	bare := det.Model()
	badCfg := DefaultConfig()
	badCfg.Cascade = CascadeCalibrated
	if _, err := NewDetector(bare, badCfg); err == nil {
		t.Error("calibrated cascade accepted a model with no calibration")
	}
}

// detIdentity is a map key identifying a detection exactly: the box and the
// score at full bit precision.
type detIdentity struct {
	box   geom.Rect
	score uint64
}

func detKey(d eval.Detection) detIdentity {
	return detIdentity{box: d.Box, score: math.Float64bits(d.Score)}
}

// TestScoreMapsCascadeThresholdEquivalent checks the score-map contract
// under the calibrated cascade: an anchor the cascade accepts keeps its
// dense score bit for bit, a pruned anchor reads -Inf, and the anchors
// above threshold rebuild exactly DetectRaw's detections.
func TestScoreMapsCascadeThresholdEquivalent(t *testing.T) {
	det, g := testDetector(t)
	model := calibratedModel(t, det.Model(), g)
	cfg := DefaultConfig()
	cfg.Workers = 2
	dense, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cascade = CascadeCalibrated
	cal, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := sceneWithPedestrian(dataset.New(1003), 320, 240, 128)
	want, err := dense.ScoreMaps(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cal.ScoreMaps(frame)
	if err != nil {
		t.Fatal(err)
	}
	dets, err := cal.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d maps, want %d", len(got), len(want))
	}
	cell := cfg.HOG.CellSize
	pruned := 0
	var rebuilt []eval.Detection
	for li := range want {
		dm, cm := want[li], got[li]
		if cm.W != dm.W || cm.H != dm.H || cm.Scale != dm.Scale || cm.ScaleY != dm.ScaleY {
			t.Fatalf("level %d geometry diverged", li)
		}
		for i, cv := range cm.Scores {
			if math.IsInf(cv, -1) {
				pruned++
				continue
			}
			if math.Float64bits(cv) != math.Float64bits(dm.Scores[i]) {
				t.Fatalf("level %d anchor %d: accepted score %v, dense %v (bits differ)", li, i, cv, dm.Scores[i])
			}
			if cv > cfg.Threshold {
				x, y := i%cm.W, i/cm.W
				rebuilt = append(rebuilt, eval.Detection{
					Box:   geom.XYWH(x*cell, y*cell, cfg.WindowW, cfg.WindowH).ScaleXY(cm.Scale, cm.ScaleY),
					Score: cv,
				})
			}
		}
	}
	if pruned == 0 || len(dets) == 0 {
		t.Fatalf("vacuous: %d pruned anchors, %d detections", pruned, len(dets))
	}
	sortByScore(rebuilt)
	sameDetections(t, "thresholded calibrated maps vs DetectRaw", dets, rebuilt)
}

// TestDetectAllocsCascade re-pins the TestDetectAllocs steady-state budget
// with the calibrated cascade and the observability layer both enabled: the
// staged path must stay allocation-free (stack row scratch, stack tallies)
// even while every window is being pruned and counted.
func TestDetectAllocsCascade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Cascade = CascadeCalibrated
	cfg.Metrics = obs.NewDetectRecorder(obs.NewMetrics())
	// Unreachable floors reject every window at stage one: the
	// maximal-traffic path for the tally code.
	model := withFloors(&svm.Model{W: make([]float64, cfg.DescriptorLen()), B: -1}, cfg, math.MaxFloat64)
	d, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	frame := imgproc.NewGray(320, 240)
	for i := range frame.Pix {
		frame.Pix[i] = uint8(rng.Intn(256))
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Detect(frame); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 20 // measured 1; -race headroom as in TestDetectAllocs
	n := testing.AllocsPerRun(20, func() {
		if _, err := d.Detect(frame); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocs/frame", n)
	if n > budget {
		t.Errorf("Detect with cascade: %v allocs/op in steady state, budget %d", n, budget)
	}
	cs := cfg.Metrics.Metrics().CascadeSnapshot()
	if cs.Windows == 0 || cs.Accepted != 0 {
		t.Errorf("unreachable floors should stage and reject everything: %+v", cs)
	}
	if cs.MeanBlocks >= float64(cfg.DescriptorLen())/float64(cfg.HOG.BlockLen()) {
		t.Errorf("mean blocks %v shows no stage-one rejection", cs.MeanBlocks)
	}
}
