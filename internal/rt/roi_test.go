package rt

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/roi"
	"repro/internal/rt/faultinject"
	"repro/internal/svm"
)

func TestLadderROI(t *testing.T) {
	got := ladder(0, 4, 2, 1, true)
	want := []Rung{
		{SkipFinest: 0, Workers: 4},
		{SkipFinest: 0, Workers: 4, ROI: true},
		{SkipFinest: 1, Workers: 4, ROI: true},
		{SkipFinest: 2, Workers: 4, ROI: true},
		{SkipFinest: 2, Workers: 2, ROI: true},
		{SkipFinest: 2, Workers: 1, ROI: true},
	}
	if len(got) != len(want) {
		t.Fatalf("ROI ladder %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ROI ladder rung %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for i, r := range ladder(0, 4, 2, 1, false) {
		if r.ROI {
			t.Fatalf("ROI-disabled ladder rung %d carries ROI: %+v", i, r)
		}
	}
}

func TestNewRejectsInvalidROI(t *testing.T) {
	det, _ := testDetector(t, nil)
	if _, err := New(det, Config{FPS: 30, ROI: &roi.Config{MarginPx: -1}}); err == nil {
		t.Fatal("New accepted a negative ROI margin")
	}
}

// TestROIShedAndRecover walks the full ROI degradation story in lock step:
// under a stall the pipeline sheds to the ROI rung before it sheds finest
// levels; at ROI rungs the scheduler alternates cadence full scans with
// track-guided restricted scans whose regions come from live tracks; and
// recovery climbs back through the ROI rung to dense-every-frame scanning.
// The bias-positive model makes every scanned window a detection, so
// detections (and therefore tracks and regions) appear exactly when the
// scan actually covers something — which is what each step asserts.
func TestROIShedAndRecover(t *testing.T) {
	faults := faultinject.New()
	cfg := core.DefaultConfig()
	cfg.Mode = core.FeaturePyramid
	cfg.ScaleStep = 1.3
	cfg.Workers = 1
	cfg.LevelProbe = faults.Probe
	// Every window scores the bias, above the zero threshold: a scan's
	// detection count reveals how much of the frame it covered.
	model := &svm.Model{W: make([]float64, cfg.DescriptorLen()), B: 0.5}
	det, err := core.NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame := imgproc.NewGray(128, 256)

	metrics := obs.NewMetrics()
	p, err := New(det, Config{
		Deadline:     time.Second,
		MaxShed:      2,
		DegradeAfter: 1,
		RecoverAfter: 3,
		ROI:          &roi.Config{FullEvery: 3, MarginPx: 32},
		Metrics:      metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Ladder: rung 0 dense, rung 1 ROI full-pyramid, rungs 2-3 ROI + shed.
	if l := p.Ladder(); len(l) != 4 || l[0].ROI || !l[1].ROI || l[1].SkipFinest != 0 || !l[2].ROI || l[2].SkipFinest != 1 {
		t.Fatalf("ladder %+v, want dense rung 0 then ROI rung at full pyramid then ROI shed rungs", l)
	}

	faults.StallLevel(0, 4*time.Second)

	// Frame 0 at the dense rung: the stall cuts it off at the deadline.
	r := step(t, p, frame)
	if r.Rung != 0 || !r.Missed || r.ROI {
		t.Fatalf("frame 0 = %+v, want missed dense-rung frame", r)
	}
	// Frame 1: degraded to the ROI rung before any level shedding. The
	// scheduler starts with a cadence full scan, which still probes the
	// stalled finest level and misses.
	r = step(t, p, frame)
	if r.Rung != 1 || !r.Missed || r.ROI {
		t.Fatalf("frame 1 = %+v, want missed full-cadence frame at ROI rung 1", r)
	}
	// Frames 2-3: degraded one more rung — finest level shed, stall dodged.
	// Restricted frames with no live tracks scan nothing and detect
	// nothing; the stream is back inside the budget.
	for i := 2; i <= 3; i++ {
		r = step(t, p, frame)
		if r.Rung != 2 || r.Missed || !r.ROI || len(r.Detections) != 0 {
			t.Fatalf("frame %d = %+v, want clean empty restricted frame at rung 2", i, r)
		}
		if i == 2 {
			faults.Clear(0) // the stall ends while degraded
		}
	}
	// Frame 4: the cadence demands a full scan; with the finest level still
	// shed it completes and finally produces detections, warming the
	// tracker. Its ok-streak completes recovery to rung 1.
	r = step(t, p, frame)
	if r.Rung != 2 || r.Missed || r.ROI || len(r.Detections) == 0 {
		t.Fatalf("frame 4 = %+v, want detecting full-cadence frame at rung 2", r)
	}
	// Frames 5-6: rung 1 scans the full pyramid restricted to the tracked
	// regions — and finds the pedestrians it is tracking.
	for i := 5; i <= 6; i++ {
		r = step(t, p, frame)
		if r.Rung != 1 || r.Missed || !r.ROI || len(r.Detections) == 0 {
			t.Fatalf("frame %d = %+v, want detecting restricted frame at rung 1", i, r)
		}
	}
	// Frame 7: cadence full scan at rung 1; its ok-streak completes
	// recovery to the dense rung.
	r = step(t, p, frame)
	if r.Rung != 1 || r.Missed || r.ROI || len(r.Detections) == 0 {
		t.Fatalf("frame 7 = %+v, want detecting full-cadence frame at rung 1", r)
	}
	// Frame 8: fully recovered — dense scanning every frame, no schedule.
	r = step(t, p, frame)
	if r.Rung != 0 || r.Missed || r.ROI || len(r.Detections) == 0 {
		t.Fatalf("frame 8 = %+v, want detecting dense frame at rung 0", r)
	}

	st := p.Stats()
	if st.ROIRung {
		t.Errorf("recovered pipeline still reports an ROI rung: %+v", st)
	}
	if st.ROIScans != 4 || st.ROIFullScans != 3 {
		t.Errorf("roi scans %d full %d, want 4 restricted (frames 2,3,5,6) and 3 full (frames 1,4,7)", st.ROIScans, st.ROIFullScans)
	}
	if st.ROIRegions == 0 {
		t.Error("restricted frames with live tracks recorded zero regions")
	}
	if got := st.String(); got == "" {
		t.Error("Stats.String empty")
	}

	// The obs frame histogram observed every emitted frame, restricted or
	// not.
	if got := metrics.Frame.Snapshot().Count; got != st.FramesOut {
		t.Errorf("frame histogram count %d, want FramesOut %d", got, st.FramesOut)
	}
}

// TestROIReengageForcesFullScan pins the staleness guard: when the ROI rung
// disengages (recovery to dense) and later re-engages, the scheduler
// restarts with a full scan rather than trusting a schedule anchored by
// old frames.
func TestROIReengageForcesFullScan(t *testing.T) {
	faults := faultinject.New()
	det, frame := testDetector(t, faults)
	p, err := New(det, Config{
		Deadline:     time.Second,
		MaxShed:      -1, // no level shedding: the ROI rung is the only fallback
		MinWorkers:   1,
		DegradeAfter: 1,
		RecoverAfter: 2,
		ROI:          &roi.Config{FullEvery: 100, MarginPx: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// MaxShed 0 leaves a two-rung ladder: dense, ROI.
	if l := p.Ladder(); len(l) != 2 || !l[1].ROI {
		t.Fatalf("ladder %+v, want [dense, ROI]", l)
	}

	engage := func(tag string) {
		t.Helper()
		faults.StallLevel(0, 4*time.Second)
		if r := step(t, p, frame); r.Rung != 0 || !r.Missed {
			t.Fatalf("%s: expected a missed dense frame, got %+v", tag, r)
		}
		faults.Clear(0)
		// First frame at the ROI rung: must be a cadence full scan (the
		// schedule restarted), not a restricted frame.
		if r := step(t, p, frame); r.Rung != 1 || r.ROI {
			t.Fatalf("%s: first ROI-rung frame = %+v, want full scan", tag, r)
		}
		// Second frame: restricted (FullEvery is far away).
		if r := step(t, p, frame); r.Rung != 1 || !r.ROI {
			t.Fatalf("%s: second ROI-rung frame = %+v, want restricted", tag, r)
		}
	}

	engage("first engage")
	// Two clean frames recover to dense (RecoverAfter=2); the schedule is
	// forgotten.
	if r := step(t, p, frame); r.Rung != 0 {
		t.Fatalf("expected recovery to dense rung, got %+v", r)
	}
	// Re-engaging must start over with a full scan even though the
	// scheduler's clock was mid-cadence when it disengaged.
	engage("re-engage")
}
