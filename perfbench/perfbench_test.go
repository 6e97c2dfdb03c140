package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/geom"
)

// smallInputs keeps the tests quick: a tiny training set, a two-frame
// clip and a handful of crops.
var smallInputs = inputConfig{
	TrainPos: 40, TrainNeg: 120,
	ClipW: 1920, ClipH: 1080, ClipFrames: 2, Walkers: 4,
	Crops: 8,
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range []string{"hd-dense", "crops-served"} {
		a, err := makeInputs(w, 7, smallInputs, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 7, smallInputs, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makeInputs(w, 8, smallInputs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave different inputs on two runs", w)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w)
		}
	}
}

func TestPingPongReplaysForwardThenBackward(t *testing.T) {
	want := []int{0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2}
	for i, w := range want {
		if got := pingPong(i, 4); got != w {
			t.Fatalf("pingPong(%d, 4) = %d, want %d", i, got, w)
		}
	}
	if got := pingPong(5, 1); got != 0 {
		t.Fatalf("pingPong on a one-frame clip = %d", got)
	}
}

// TestLedgerReconciles checks that each traced frame's stage spans nest
// inside its detect span, and that the ledger's stage rows plus
// core.unattributed_ms add up to core.detect_ms.
func TestLedgerReconciles(t *testing.T) {
	in, err := makeInputs("hd-tracked", 3, smallInputs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newHDStack(in, true, true)
	if err != nil {
		t.Fatal(err)
	}
	var l hdLedger
	for i := 0; i < 8; i++ {
		fr := s.step()
		if fr.err != nil {
			t.Fatal(fr.err)
		}
		if !s.correct(fr) {
			t.Fatalf("frame %d (full scan %v): detections differ from the reference", fr.index, fr.plan.Full)
		}
		var sum int64
		for _, v := range fr.stages {
			sum += v
		}
		if sum <= 0 || sum > int64(fr.detect) {
			t.Fatalf("frame %d: stage spans sum to %d ns, detect span is %d ns", i, sum, fr.detect)
		}
		l.add(fr, in.clip.Frames[fr.index].Bounds())
	}
	v := l.values()
	parts := v["core.scan_ms"] + v["core.nms_ms"] + v["hog.cells_ms"] + v["hog.norm_ms"] +
		v["featpyr.pyramid_ms"] + v["core.unattributed_ms"]
	if math.Abs(parts-v["core.detect_ms"]) > 1e-9*v["core.detect_ms"] {
		t.Fatalf("stage rows plus unattributed = %v ms, detect = %v ms", parts, v["core.detect_ms"])
	}
	if v["roi.full_scan_ratio"] != 1.0/8 { // scheduler frames 2-9 (0 and 1 warm up); 6 is full
		t.Fatalf("roi.full_scan_ratio = %v, want 1/8", v["roi.full_scan_ratio"])
	}
}

// TestRestrictedFrameCheckCatchesWrongRegions scans restricted frames
// under regions other than the plan's and checks that correct() rejects
// every output that differs from the plan's.
func TestRestrictedFrameCheckCatchesWrongRegions(t *testing.T) {
	in, err := makeInputs("hd-tracked", 3, smallInputs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newHDStack(in, true, false)
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for i := 0; i < 8; i++ {
		fr := s.step()
		if fr.err != nil {
			t.Fatal(fr.err)
		}
		if fr.plan.Full || len(fr.dets) == 0 {
			continue
		}
		if !s.correct(fr) {
			t.Fatalf("frame %d: the plan's own regions failed the check", fr.index)
		}
		plan := fr.plan.Regions
		frame := in.clip.Frames[fr.index]
		var shifted []geom.Rect
		for _, r := range plan {
			shifted = append(shifted, r.Translate(geom.Pt{X: frame.W / 2, Y: 0}).Intersect(frame.Bounds()))
		}
		for name, wrong := range map[string][]geom.Rect{
			"none":    {},
			"dropped": plan[1:],
			"shifted": shifted,
		} {
			s.regions.Set(wrong)
			dets, err := s.det.Detect(frame)
			if err != nil {
				t.Fatal(err)
			}
			bad := fr
			bad.dets = dets
			if sameDetections(dets, fr.dets) {
				continue // these regions happen to keep the same windows
			}
			if s.correct(bad) {
				t.Fatalf("frame %d: %s regions gave other detections, and the check passed them", fr.index, name)
			}
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("no wrong region set changed a restricted frame's detections")
	}
}

// TestMeasureTakesMinSamples checks that a timed phase shorter than its
// sample minimum runs on until it has the samples.
func TestMeasureTakesMinSamples(t *testing.T) {
	in, err := makeInputs("hd-dense", 3, smallInputs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newHDStack(in, false, false)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := s.measure(time.Nanosecond, 3, &speedometer{})
	if err != nil {
		t.Fatal(err)
	}
	// Under the race detector a 1080p frame can miss its 1 s deadline, so
	// the on-time count is not checked here.
	if len(ph.lat) != 3 || ph.out.attempted != 3 || ph.out.failed != 0 {
		t.Fatalf("measured %d samples, outcome %+v; want 3 answered", len(ph.lat), ph.out)
	}
}

func TestCropsServedRunsAndTraces(t *testing.T) {
	in, err := makeInputs("crops-served", 5, smallInputs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		st, err := newCropStack(in, 5, traced)
		if err != nil {
			t.Fatal(err)
		}
		st.rate = 20 // well within capacity, even under the race detector
		ph, err := st.measure(time.Second, 0, &speedometer{})
		st.close()
		if err != nil {
			t.Fatal(err)
		}
		if ph.out.attempted == 0 || ph.out.failed != 0 || ph.out.wrong != 0 {
			t.Fatalf("traced=%v: outcome %+v", traced, ph.out)
		}
		if !traced {
			continue
		}
		ph.layers["bench.trace_overhead_ratio"] = 0 // runTraced adds it across two phases
		if _, err := buildResult(perLayer, ph.layers, ph.out, true); err != nil {
			t.Fatal(err)
		}
		if ph.layers["serve.http_ms"] <= 0 || ph.layers["rt.frame_ms"] <= 0 {
			t.Fatalf("serving spans missing: %v", ph.layers)
		}
	}
}

func TestMetricNamesAreUniqueAndHaveUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q has a bad name or unit %q", d.Name, d.Unit)
		}
	}
}

// TestBenchmarkFileListsTheMetrics checks BENCHMARK.json at the repository
// root against the metrics the program prints.
func TestBenchmarkFileListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			if file[i].Name != d.Name || file[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, file[i].Name, file[i].Unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
}

func TestBuildResultRejectsMissingAndUnknownMetrics(t *testing.T) {
	v := map[string]float64{}
	for _, d := range endToEnd {
		v[d.Name] = 1
	}
	o := outcome{attempted: 1, ok: 1}
	r, err := buildResult(endToEnd, v, o, true)
	if err != nil || !r.Correct || len(r.Metrics) != len(endToEnd) {
		t.Fatalf("complete metrics: %+v, %v", r, err)
	}
	if r, _ := buildResult(endToEnd, v, outcome{attempted: 1, wrong: 1, failed: 1}, true); r.Correct {
		t.Fatal("a wrong answer left the result correct")
	}
	if r, _ := buildResult(endToEnd, v, outcome{attempted: 2, failed: 1, ok: 1}, true); r.Correct {
		t.Fatal("a failed request left the result correct")
	}
	if r, _ := buildResult(endToEnd, v, o, false); r.Correct {
		t.Fatal("a failed check left the result correct")
	}
	v["extra"] = 1
	if _, err := buildResult(endToEnd, v, o, true); err == nil {
		t.Fatal("an undefined metric was accepted")
	}
	delete(v, "extra")
	delete(v, "fps")
	if _, err := buildResult(endToEnd, v, o, true); err == nil {
		t.Fatal("a missing metric was accepted")
	}
	v["fps"] = math.NaN()
	if _, err := buildResult(endToEnd, v, o, true); err == nil {
		t.Fatal("a NaN metric was accepted")
	}
}

func TestScaleDurationsScalesOnlyTimes(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}, {"c", "us"}, {"d", "1/s"}, {"e", "ratio"}, {"f", "MB"}}
	v := map[string]float64{"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1}
	scaleDurations(defs, v, 0.5)
	want := map[string]float64{"a": 0.5, "b": 0.5, "c": 0.5, "d": 1, "e": 1, "f": 1}
	for k, w := range want {
		if v[k] != w {
			t.Errorf("%s = %v after scaling, want %v", k, v[k], w)
		}
	}
}

func TestSpeedometerTimesTheChain(t *testing.T) {
	sp := newSpeedometer()
	sp.sample(3)
	if len(sp.ns) != 3 {
		t.Fatalf("%d bursts timed, want 3", len(sp.ns))
	}
	if k := sp.scale(); !(k > 0) || math.IsInf(k, 0) {
		t.Fatalf("scale %v, want a positive finite factor", k)
	}
}
