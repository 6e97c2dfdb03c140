package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/svm"
)

// TestDetectAllocs pins the steady-state allocation budget of the whole
// detect path in feature-pyramid mode. The arena's per-frame scratch holds
// the HOG front end, the pyramid's level store and the scan's bookkeeping,
// so at one worker a frame allocates only the scan's fan-out closure:
// measured 1. Under -race, sync.Pool drops a quarter of all Puts, and the
// frame after a drop regrows the scratch in 25 allocations, which averages
// to 1 + 1.25 per dropped put over the 20 runs; the budget of 20 holds
// unless 16 of 20 puts drop (p ~ 4e-7). It sits far below the ~70 allocs /
// 10 MB per frame the seed tree paid (and the 22 before the level store);
// a regression past it means per-frame garbage crept back into the hot
// path.
//
// The fixed-point mode also measures 1 alloc per frame: its scaler builds
// each phase's shift-add networks once, not once per call (a fresh network
// set per level cost ~111k allocations per 640x480 frame), and its
// quantized input is pooled scratch. Under -race that pool also drops a
// quarter of its Puts, one Put per scaled level, and each drop regrows the
// scratch: over 16 runs under -race the mode measured 7-22 allocations per
// frame against 5-18 in feature mode, so its budget is 40, still far below
// one network set per level.
//
// The image and octave pyramids measure 1 alloc per frame too: their
// octaves are resized and extracted into the arena's lanes (one resize
// buffer and HOG scratch per extraction goroutine) and copied into the
// level store, which is sized from the level plan before any octave is
// built. The image pyramid used to resize and extract every level into
// fresh buffers, ~45 allocations per 320x240 frame. A frame after a
// dropped put regrows the lanes as well, ~49 allocations in image mode and
// ~33 in octave mode, so their budget of 40 holds unless 16 of 20 puts
// drop, as in feature mode.
func TestDetectAllocs(t *testing.T) {
	for _, c := range []struct {
		mode   PyramidMode
		budget float64
	}{
		{FeaturePyramid, 20},
		{FeaturePyramidFixed, 40},
		{ImagePyramid, 40},
		{OctavePyramid, 40},
	} {
		t.Run(c.mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = c.mode
			cfg.Workers = 1
			// A zero-weight model scores every window at the bias: keep it
			// below threshold so no detection slices grow during the
			// measurement.
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
			// Warm the arena, the featpyr level pool and the fixed
			// scaler's phase networks.
			for i := 0; i < 3; i++ {
				if _, err := d.Detect(frame); err != nil {
					t.Fatal(err)
				}
			}
			n := testing.AllocsPerRun(20, func() {
				if _, err := d.Detect(frame); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v allocs/frame", n)
			if n > c.budget {
				t.Errorf("Detect: %v allocs/op in steady state, budget %v", n, c.budget)
			}
		})
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
	const budget = 20 // see TestDetectAllocs
	n := testing.AllocsPerRun(20, func() {
		if _, err := d.Detect(frame); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocs/frame", n)
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

// TestDetectAllocs1080p pins the steady-state allocations and bytes of
// dense Detect at the paper's operating point, a 1920x1080 frame. The
// arena's scratch holds the front end's buffers, the level store every
// pyramid level is resampled into (level 0 is the base map, scanned in
// place) and the scan's shard bookkeeping, so what remains per frame is the
// worker pool's fan-out bookkeeping: a closure per fan-out, plus the run
// state and worker closure of each parallel one. Neither grows with the
// frame's area or the pyramid's depth; an allocation per level, per scan
// chunk or per window would add tens to thousands a frame, and a level or
// base-map copy megabytes. The image and octave pyramids run the same way:
// their octaves are resized and extracted into the arena's lanes, one
// resize buffer and HOG scratch per extraction goroutine, and their levels
// are planned before any is built, so the level store is sized on the
// first frame.
//
// Measured 1 alloc and 112 B per frame at workers=1, 11 allocs and
// 0.7-1.7 KB at workers=2, 1 alloc and 112 B in octave mode, and in image
// mode 1 alloc and 112 B at workers=1 and 11 allocs and 672 B at workers=2
// (it was 127 allocs and ~12 MB per frame when every level was resized and
// extracted into fresh buffers). Under -race, sync.Pool drops a quarter of
// all Puts on purpose, and the frame after a drop regrows the whole
// scratch: 26 more allocations (a constant; presized, not per level) and
// ~70 MB, ~49 more in octave mode and image mode at workers=1, whose lane
// and level plan regrow too, and ~65 more in image mode at workers=2, with
// two lanes. The alloc budgets of 32, 48, 56, 56 and 80 hold even if every
// measured frame follows a drop; the bytes are averaged over the frames
// whose arena checkout hit the pool, so the 1 KB and 4 KB budgets pin the
// steady state either way.
func TestDetectAllocs1080p(t *testing.T) {
	frame := imgproc.NewGray(1920, 1080)
	rng := rand.New(rand.NewSource(7))
	for i := range frame.Pix {
		frame.Pix[i] = uint8(rng.Intn(256))
	}
	for _, c := range []struct {
		mode            PyramidMode
		workers, budget int
		bytes           uint64
	}{
		{FeaturePyramid, 1, 32, 1 << 10},
		{FeaturePyramid, 2, 48, 4 << 10},
		{OctavePyramid, 1, 56, 4 << 10},
		{ImagePyramid, 1, 56, 4 << 10},
		{ImagePyramid, 2, 80, 4 << 10},
	} {
		cfg := DefaultConfig()
		cfg.Mode = c.mode
		cfg.Workers = c.workers
		// Zero weights score every window at the bias, below threshold:
		// no detection slice grows during the measurement.
		model := &svm.Model{W: make([]float64, cfg.DescriptorLen()), B: -1}
		d, err := NewDetector(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Detect(frame); err != nil { // warm the arena
			t.Fatal(err)
		}
		var bytes, frames uint64
		var ms0, ms1 runtime.MemStats
		detect := func() {
			_, miss0 := d.arena.Counters()
			runtime.ReadMemStats(&ms0)
			if _, err := d.Detect(frame); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms1)
			if _, miss1 := d.arena.Counters(); miss1 == miss0 {
				bytes += ms1.TotalAlloc - ms0.TotalAlloc
				frames++
			}
		}
		n := testing.AllocsPerRun(5, detect)
		for i := 0; frames == 0 && i < 10; i++ {
			detect() // every frame so far followed a dropped scratch
		}
		if frames == 0 {
			t.Fatalf("%v workers=%d: no frame hit the arena's pool", c.mode, c.workers)
		}
		bytes /= frames
		t.Logf("%v workers=%d: %v allocs/frame, %d B/frame", c.mode, c.workers, n, bytes)
		if n > float64(c.budget) {
			t.Errorf("Detect 1080p %v workers=%d: %v allocs/op in steady state, budget %d", c.mode, c.workers, n, c.budget)
		}
		if bytes > c.bytes {
			t.Errorf("Detect 1080p %v workers=%d: %d B/frame in steady state, budget %d", c.mode, c.workers, bytes, c.bytes)
		}
	}
}
