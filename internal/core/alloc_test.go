package core

import (
	"math/rand"
	"testing"

	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/svm"
)

// TestDetectAllocs pins the steady-state allocation budget of the whole
// detect path in feature-pyramid mode. The arena keeps the HOG front end
// allocation-free and featpyr's level pool recycles the pyramid maps, so
// what remains per frame is a small fixed set: the level/detection slices
// and the release closure. The budget has headroom over the measured count
// (~22 on this container) but sits orders of magnitude below the ~70 allocs
// / 10 MB per frame the seed tree paid; a regression past it means
// per-frame garbage crept back into the hot path.
func TestDetectAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	// A zero-weight model scores every window at the bias: keep it below
	// threshold so no detection slices grow during the measurement.
	model := &svm.Model{W: make([]float64, cfg.DescriptorLen()), B: -1}
	d, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	frame := imgproc.NewGray(320, 240)
	for i := range frame.Pix {
		frame.Pix[i] = uint8(rng.Intn(256))
	}
	// Warm the arena and the featpyr level pool.
	for i := 0; i < 3; i++ {
		if _, err := d.Detect(frame); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 32
	n := testing.AllocsPerRun(20, func() {
		if _, err := d.Detect(frame); err != nil {
			t.Fatal(err)
		}
	})
	if n > budget {
		t.Errorf("Detect: %v allocs/op in steady state, budget %d", n, budget)
	}
}

// TestDetectAllocsMetricsOn re-pins the TestDetectAllocs budget with the
// observability layer enabled: stage timing, per-level resample histograms,
// and arena counters must all record without adding a single steady-state
// allocation to the detect path.
func TestDetectAllocsMetricsOn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Metrics = obs.NewDetectRecorder(obs.NewMetrics())
	model := &svm.Model{W: make([]float64, cfg.DescriptorLen()), B: -1}
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
	const budget = 32
	n := testing.AllocsPerRun(20, func() {
		if _, err := d.Detect(frame); err != nil {
			t.Fatal(err)
		}
	})
	if n > budget {
		t.Errorf("Detect with metrics: %v allocs/op in steady state, budget %d", n, budget)
	}
	m := cfg.Metrics.Metrics()
	for _, st := range []obs.Stage{obs.StageHOGCells, obs.StageHOGNorm, obs.StagePyramid, obs.StageScan, obs.StageNMS} {
		if m.Stage[st].Snapshot().Count == 0 {
			t.Errorf("stage %s recorded nothing with metrics enabled", st)
		}
	}
	if m.PyrLevel.Snapshot().Count == 0 {
		t.Error("pyramid-level histogram recorded nothing")
	}
	if gets, _ := d.arena.Counters(); gets == 0 {
		t.Error("arena counters recorded no checkouts")
	}
}

// TestDetectAllocs1080p pins the steady-state allocation budget of dense
// Detect at the paper's operating point, a 1920x1080 frame, where the scan
// walks up to 233 anchors per window row in chunks of ScoreSpan's stack
// buffer: a heap allocation per chunk (or per window) would add thousands
// of allocations a frame and blow the budget. What remains is the fixed
// per-frame and per-level bookkeeping, which grows with the pyramid's depth
// and the shard count rather than the frame's area. Measured 58-61 allocs
// per frame at workers=1 and 79-83 at workers=2 (the spread is sync.Pool
// entries dropped by a GC inside the run). Under -race, sync.Pool also
// drops a share of Puts on purpose, which measured 69-74 and 94-103. The
// budgets of 96 and 128 sit about 25% above the race build's worst run,
// while an allocation per scan chunk would add over 1,000 per frame
// (level 0 alone has 120 window rows of four chunks each).
func TestDetectAllocs1080p(t *testing.T) {
	frame := imgproc.NewGray(1920, 1080)
	rng := rand.New(rand.NewSource(7))
	for i := range frame.Pix {
		frame.Pix[i] = uint8(rng.Intn(256))
	}
	for _, c := range []struct{ workers, budget int }{{1, 96}, {2, 128}} {
		cfg := DefaultConfig()
		cfg.Workers = c.workers
		// Zero weights score every window at the bias, below threshold:
		// no detection slice grows during the measurement.
		model := &svm.Model{W: make([]float64, cfg.DescriptorLen()), B: -1}
		d, err := NewDetector(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Detect(frame); err != nil { // warm the arena and level pool
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(5, func() {
			if _, err := d.Detect(frame); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("workers=%d: %v allocs/frame", c.workers, n)
		if n > float64(c.budget) {
			t.Errorf("Detect 1080p workers=%d: %v allocs/op in steady state, budget %d", c.workers, n, c.budget)
		}
	}
}
