package rt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/imgproc"
	"repro/internal/rt/faultinject"
	"repro/internal/svm"
)

// testDetector builds a detector with a synthetic all-zero model: every
// window scores exactly the bias (0), below the default threshold, so scans
// are fast and produce no detections — the runtime behaviour under test is
// scheduling, not accuracy. The 128x256 frame yields a 3-level feature
// pyramid at step 1.3 (absolute levels 0, 1, 2).
func testDetector(t *testing.T, faults *faultinject.Faults) (*core.Detector, *imgproc.Gray) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Mode = core.FeaturePyramid
	cfg.ScaleStep = 1.3
	cfg.Workers = 1
	if faults != nil {
		cfg.LevelProbe = faults.Probe
	}
	model := &svm.Model{W: make([]float64, cfg.DescriptorLen())}
	det, err := core.NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det, imgproc.NewGray(128, 256)
}

// step submits one frame and waits for its result — lock-step feeding, so
// the queue never drops and the controller sees a deterministic sequence.
func step(t *testing.T, p *Pipeline, frame *imgproc.Gray) FrameResult {
	t.Helper()
	if !p.Submit(frame) {
		t.Fatal("Submit rejected a frame on an idle pipeline")
	}
	select {
	case r, ok := <-p.Results():
		if !ok {
			t.Fatal("Results closed mid-stream")
		}
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("no result within 30s — pipeline deadlocked")
		panic("unreachable")
	}
}

// TestShedUnderStallAndRecover is the acceptance scenario of the streaming
// runtime: under an injected stall on the finest pyramid level the pipeline
// keeps emitting frames by shedding that level, reports the misses in
// Stats, and restores full scale coverage after the fault clears.
func TestShedUnderStallAndRecover(t *testing.T) {
	faults := faultinject.New()
	det, frame := testDetector(t, faults)
	// The deadline is generous relative to an unstalled scan (~ms): the
	// recovery streak needs frames comfortably inside RecoverMargin even
	// when the race detector and parallel package binaries slow things
	// down several-fold, or the streak resets and the rung never recovers.
	p, err := New(det, Config{
		Deadline:     time.Second,
		MaxShed:      2,
		DegradeAfter: 2,
		RecoverAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	wantLadder := []Rung{{SkipFinest: 0, Workers: 1}, {SkipFinest: 1, Workers: 1}, {SkipFinest: 2, Workers: 1}}
	if got := p.Ladder(); len(got) != len(wantLadder) || got[0] != wantLadder[0] ||
		got[1] != wantLadder[1] || got[2] != wantLadder[2] {
		t.Fatalf("ladder %+v, want %+v", got, wantLadder)
	}

	// The finest level stalls far past the deadline.
	faults.StallLevel(0, 4*time.Second)

	// Frames 1-2: scanned at full quality, cut off at the deadline.
	for i := 0; i < 2; i++ {
		r := step(t, p, frame)
		if r.Rung != 0 {
			t.Fatalf("frame %d: rung %d, want 0", i, r.Rung)
		}
		if !r.Missed || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("frame %d under stall: missed=%v err=%v, want deadline miss", i, r.Missed, r.Err)
		}
	}

	// Frames 3-4: the controller shed the stalled level; the stream is back
	// inside the budget while the fault is still active.
	for i := 2; i < 4; i++ {
		r := step(t, p, frame)
		if r.Rung != 1 {
			t.Fatalf("frame %d: rung %d, want 1 (finest level shed)", i, r.Rung)
		}
		if r.Missed || r.Err != nil {
			t.Fatalf("frame %d at rung 1: missed=%v err=%v, want clean in-budget frame", i, r.Missed, r.Err)
		}
		if r.Latency > p.Deadline() {
			t.Fatalf("frame %d latency %v exceeds deadline %v", i, r.Latency, p.Deadline())
		}
	}

	// Fault clears; the third comfortable frame completes the recovery
	// streak and the controller restores the shed level.
	faults.Reset()
	if r := step(t, p, frame); r.Rung != 1 || r.Err != nil {
		t.Fatalf("frame 4: rung %d err %v, want final rung-1 frame", r.Rung, r.Err)
	}
	for i := 5; i < 7; i++ {
		r := step(t, p, frame)
		if r.Rung != 0 {
			t.Fatalf("frame %d: rung %d, want 0 (full coverage restored)", i, r.Rung)
		}
		if r.Missed || r.Err != nil {
			t.Fatalf("frame %d after recovery: missed=%v err=%v", i, r.Missed, r.Err)
		}
	}

	s := p.Stats()
	if s.FramesIn != 7 || s.FramesOut != 7 || s.FramesDropped != 0 {
		t.Errorf("frames in/out/dropped = %d/%d/%d, want 7/7/0", s.FramesIn, s.FramesOut, s.FramesDropped)
	}
	if s.DeadlineMisses != 2 {
		t.Errorf("deadline misses %d, want 2", s.DeadlineMisses)
	}
	if s.DegradeEvents != 1 || s.RecoverEvents != 1 {
		t.Errorf("degrade/recover events %d/%d, want 1/1", s.DegradeEvents, s.RecoverEvents)
	}
	if s.Rung != 0 || s.SkipFinest != 0 {
		t.Errorf("final rung %d (skip %d), want full quality", s.Rung, s.SkipFinest)
	}
	if s.Panics != 0 {
		t.Errorf("panics %d, want 0", s.Panics)
	}
}

// TestPoisonFrameDoesNotKillStream: a frame whose pixel buffer is shorter
// than its header claims panics inside feature extraction; the runtime
// converts it to a per-frame error and keeps scanning.
func TestPoisonFrameDoesNotKillStream(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			det, frame := testDetector(t, nil)
			det = withWorkers(t, det, workers)
			p, err := New(det, Config{Deadline: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			if r := step(t, p, frame); r.Err != nil {
				t.Fatalf("clean frame: %v", r.Err)
			}
			poison := faultinject.TruncatePix(frame, len(frame.Pix)/2)
			r := step(t, p, poison)
			if r.Err == nil {
				t.Fatal("poison frame produced no error")
			}
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("poison frame error %v, want *PanicError", r.Err)
			}
			if r := step(t, p, frame); r.Err != nil {
				t.Fatalf("stream did not continue after poison frame: %v", r.Err)
			}
			s := p.Stats()
			if s.Panics != 1 || s.Errors != 1 {
				t.Errorf("panics/errors = %d/%d, want 1/1", s.Panics, s.Errors)
			}
			if s.FramesOut != 3 {
				t.Errorf("frames out %d, want 3", s.FramesOut)
			}
			if s.Rung != 0 {
				t.Errorf("rung %d: poison frames must not trigger degradation", s.Rung)
			}
		})
	}
}

// withWorkers rebuilds det with cfg.Workers = workers.
func withWorkers(t *testing.T, det *core.Detector, workers int) *core.Detector {
	t.Helper()
	cfg := det.Config()
	cfg.Workers = workers
	d, err := core.NewDetector(det.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPoisonScalePanicIsRecovered: a panic injected at a specific pyramid
// level (rather than a corrupt buffer) is also confined to its frame.
func TestPoisonScalePanicIsRecovered(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			faults := faultinject.New()
			det, frame := testDetector(t, faults)
			det = withWorkers(t, det, workers)
			p, err := New(det, Config{Deadline: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			faults.PanicLevel(1, "injected poison scale")
			r := step(t, p, frame)
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("got %v, want *PanicError", r.Err)
			}
			faults.Reset()
			if r := step(t, p, frame); r.Err != nil {
				t.Fatalf("stream dead after poison scale: %v", r.Err)
			}
		})
	}
}

// TestDropOldestUnderBackpressure: when frames arrive faster than the
// scanner drains them, the bounded queue evicts the oldest frames and the
// newest survive.
func TestDropOldestUnderBackpressure(t *testing.T) {
	faults := faultinject.New()
	det, frame := testDetector(t, faults)
	p, err := New(det, Config{Deadline: 10 * time.Second, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Occupy the scanner: the first frame stalls well past the burst below.
	faults.StallLevel(0, 500*time.Millisecond)
	if !p.Submit(frame) {
		t.Fatal("first submit rejected")
	}
	time.Sleep(100 * time.Millisecond) // scanner is now inside the stall
	for i := 0; i < 4; i++ {
		if !p.Submit(frame) {
			t.Fatalf("burst submit %d rejected (drop-oldest should make room)", i)
		}
	}
	faults.Reset()
	p.Flush()
	s := p.Stats()
	if s.FramesIn != 5 {
		t.Fatalf("frames in %d, want 5", s.FramesIn)
	}
	if s.FramesOut+s.FramesDropped != s.FramesIn {
		t.Fatalf("out %d + dropped %d != in %d", s.FramesOut, s.FramesDropped, s.FramesIn)
	}
	if s.FramesDropped != 2 {
		t.Errorf("dropped %d, want 2 (queue of 2 under a 4-frame burst)", s.FramesDropped)
	}
	// The newest frame always survives a drop-oldest queue.
	var last FrameResult
	for i := uint64(0); i < s.FramesOut; i++ {
		last = <-p.Results()
	}
	if want := uint64(4); last.Seq != want {
		t.Errorf("last scanned frame seq %d, want %d", last.Seq, want)
	}
}

func TestCloseIsIdempotentAndStopsIntake(t *testing.T) {
	det, frame := testDetector(t, nil)
	p, err := New(det, Config{FPS: 60})
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Second / 60; p.Deadline() < want-time.Millisecond || p.Deadline() > want+time.Millisecond {
		t.Errorf("deadline %v, want ~%v from 60 fps", p.Deadline(), want)
	}
	p.Close()
	p.Close()
	if p.Submit(frame) {
		t.Error("Submit accepted a frame after Close")
	}
	if _, ok := <-p.Results(); ok {
		t.Error("Results still open after Close")
	}
}

func TestCloseCancelsInflightStall(t *testing.T) {
	faults := faultinject.New()
	det, frame := testDetector(t, faults)
	p, err := New(det, Config{Deadline: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	faults.StallLevel(0, 10*time.Minute)
	p.Submit(frame)
	time.Sleep(50 * time.Millisecond) // let the scanner enter the stall
	start := time.Now()
	p.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v: in-flight frame was not cancelled", elapsed)
	}
}

// TestLifecycleAfterClose is the regression suite for the supervisor
// restart path (internal/serve): double Close from concurrent goroutines,
// Submit after Close, and Flush after Close must all be safe no-ops, and
// the frame accounting must still balance afterwards.
func TestLifecycleAfterClose(t *testing.T) {
	det, frame := testDetector(t, nil)
	p, err := New(det, Config{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if p.Closed() {
		t.Fatal("pipeline reports closed before Close")
	}
	if r := step(t, p, frame); r.Err != nil {
		t.Fatalf("clean frame: %v", r.Err)
	}

	// Concurrent double Close: both calls must return, exactly once each.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Close calls did not return")
	}

	if !p.Closed() {
		t.Error("Closed() false after Close")
	}
	if p.Submit(frame) {
		t.Error("Submit accepted a frame after Close")
	}
	flushed := make(chan struct{})
	go func() { p.Flush(); close(flushed) }()
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("Flush hung on a closed pipeline")
	}
	s := p.Stats()
	if s.FramesIn != s.FramesOut+s.FramesDropped {
		t.Errorf("after Close: in %d != out %d + dropped %d",
			s.FramesIn, s.FramesOut, s.FramesDropped)
	}
}

// TestCloseCountsQueuedFramesDropped: frames sitting in the queue when Close
// fires are accounted as dropped, not leaked from the stats.
func TestCloseCountsQueuedFramesDropped(t *testing.T) {
	faults := faultinject.New()
	det, frame := testDetector(t, faults)
	p, err := New(det, Config{Deadline: 10 * time.Second, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Park the scanner inside a stall, then queue frames behind it.
	faults.StallLevel(0, 10*time.Second)
	if !p.Submit(frame) {
		t.Fatal("first submit rejected")
	}
	time.Sleep(50 * time.Millisecond) // scanner enters the stall
	for i := 0; i < 3; i++ {
		if !p.Submit(frame) {
			t.Fatalf("queued submit %d rejected", i)
		}
	}
	p.Close()
	s := p.Stats()
	if s.FramesIn != 4 {
		t.Fatalf("frames in %d, want 4", s.FramesIn)
	}
	if s.FramesIn != s.FramesOut+s.FramesDropped {
		t.Errorf("in %d != out %d + dropped %d after Close drained the queue",
			s.FramesIn, s.FramesOut, s.FramesDropped)
	}
	if s.FramesDropped < 2 {
		t.Errorf("dropped %d, want >= 2 (queued frames behind the stall)", s.FramesDropped)
	}
}

// TestConcurrentSubmitClose races many Submit calls against Close under the
// race detector: no panic, no lost frames in the accounting.
func TestConcurrentSubmitClose(t *testing.T) {
	det, frame := testDetector(t, nil)
	p, err := New(det, Config{Deadline: 10 * time.Second, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p.Submit(frame)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	p.Close()
	wg.Wait()
	for range p.Results() {
		// drain whatever was emitted before Close landed
	}
	s := p.Stats()
	if s.FramesIn != s.FramesOut+s.FramesDropped {
		t.Errorf("in %d != out %d + dropped %d under Submit/Close race",
			s.FramesIn, s.FramesOut, s.FramesDropped)
	}
}

func TestNewRejectsMissingBudget(t *testing.T) {
	det, _ := testDetector(t, nil)
	if _, err := New(det, Config{}); err == nil {
		t.Fatal("config without FPS or Deadline must be rejected")
	}
}
