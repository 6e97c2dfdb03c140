package rt

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rt/faultinject"
)

// waitResult reads one result with a test-level timeout.
func waitResult(t *testing.T, p *Pipeline, within time.Duration) (FrameResult, bool) {
	t.Helper()
	select {
	case r, ok := <-p.Results():
		return r, ok
	case <-time.After(within):
		t.Fatalf("no result within %v", within)
		panic("unreachable")
	}
}

// TestHangWatchdogWedgesPipeline is the core liveness scenario: a scan
// stuck in ctx-ignoring code is detected within HangTimeout, reported as
// ErrHung, and the pipeline moves to the terminal Wedged state with the
// abandoned goroutine leak-accounted — and the frame-conservation
// invariant holds through all of it.
func TestHangWatchdogWedgesPipeline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := obs.NewMetrics()
	faults := faultinject.New()
	det, frame := testDetector(t, faults)
	// Generous absolute values (the suite shares one CPU with three other
	// race-instrumented packages); only the ordering deadline < hang <
	// stall matters to the scenario.
	const (
		deadline = 1 * time.Second
		hang     = 600 * time.Millisecond
		stall    = 3 * time.Second
	)
	p, err := New(det, Config{Deadline: deadline, HangTimeout: hang, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if p.HangTimeout() != hang {
		t.Fatalf("HangTimeout() = %v, want %v", p.HangTimeout(), hang)
	}

	// A healthy frame first: the watchdog must not disturb normal scans.
	if r := step(t, p, frame); r.Err != nil {
		t.Fatalf("healthy frame: %v", r.Err)
	}

	faults.HardStallLevel(0, stall)
	start := time.Now()
	if !p.Submit(frame) {
		t.Fatal("Submit rejected on a healthy pipeline")
	}
	r, ok := waitResult(t, p, 10*time.Second)
	if !ok {
		t.Fatal("Results closed before the hung frame's result")
	}
	detected := time.Since(start)
	if !errors.Is(r.Err, ErrHung) {
		t.Fatalf("hung frame returned %v, want ErrHung", r.Err)
	}
	if !r.Missed {
		t.Error("hung frame not flagged Missed")
	}
	// Detection latency: at least the hang timeout (the watchdog cannot
	// fire early), and well before the stall would have ended on its own.
	if detected < hang {
		t.Errorf("hang detected after %v, before the %v watchdog bound", detected, hang)
	}
	if detected >= stall {
		t.Errorf("hang detected after %v — the watchdog waited out the %v stall instead of abandoning it", detected, stall)
	}

	// Terminal state: Results closes, Submit refuses, Wedged reports.
	if _, ok := waitResult(t, p, 10*time.Second); ok {
		t.Fatal("Results still open after the wedge")
	}
	if !p.Wedged() {
		t.Error("Wedged() = false after watchdog abandonment")
	}
	if p.Submit(frame) {
		t.Error("Submit accepted a frame on a wedged pipeline")
	}

	s := p.Stats()
	if !s.Wedged {
		t.Error("Stats().Wedged = false")
	}
	if s.FramesHung != 1 {
		t.Errorf("FramesHung = %d, want 1", s.FramesHung)
	}
	if s.FramesIn != s.FramesOut+s.FramesDropped+s.InFlight {
		t.Errorf("conservation broken after wedge: in %d != out %d + dropped %d + inflight %d",
			s.FramesIn, s.FramesOut, s.FramesDropped, s.InFlight)
	}
	if s.InFlight != 0 {
		t.Errorf("InFlight = %d after wedge, want 0 (hung frame counts out)", s.InFlight)
	}
	if s.Errors != 1 || s.Panics != 0 {
		t.Errorf("errors/panics = %d/%d, want 1/0", s.Errors, s.Panics)
	}

	// Obs registry: abandoned-scanner ledger, hung frame observed, trace
	// flag.
	if got := m.Frame.Snapshot().Count; got != s.FramesOut {
		t.Errorf("frame histogram count %d, want FramesOut %d (the hung frame is observed)", got, s.FramesOut)
	}
	if got := m.AbandonedScanners.Load(); got != 1 {
		t.Errorf("obs AbandonedScanners = %d, want 1 while the scanner is stuck", got)
	}
	hungTraces := 0
	for _, tr := range m.Traces.Snapshot() {
		if tr.Hung {
			hungTraces++
			if tr.Stages != ([obs.NumStages]int64{}) {
				t.Error("hung trace carries a stage breakdown; a stuck scan cannot report one")
			}
		}
	}
	if hungTraces != 1 {
		t.Errorf("hung traces = %d, want 1", hungTraces)
	}

	// Close is prompt (the run loop already exited) and idempotent; the
	// wedge is terminal, so Stats still reports it.
	closeStart := time.Now()
	p.Close()
	p.Close()
	if elapsed := time.Since(closeStart); elapsed > 5*time.Second {
		t.Fatalf("Close on a wedged pipeline took %v", elapsed)
	}
	if !p.Stats().Wedged {
		t.Error("Stats().Wedged = false after Close; the wedge is terminal")
	}

	// The abandoned goroutine unsticks when its wall-clock sleep ends,
	// checks out of the leak ledger, and exits: full settle, gauge to 0.
	settleDeadline := time.Now().Add(10 * time.Second)
	for m.AbandonedScanners.Load() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(settleDeadline) {
			t.Fatalf("abandoned scanner did not settle: gauge %d, goroutines %d (baseline %d)",
				m.AbandonedScanners.Load(), runtime.NumGoroutine(), baseline)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWedgeCountsQueuedFramesDropped: frames queued behind the hung scan
// are drained as dropped when the pipeline wedges, so conservation holds
// with InFlight 0 even though they were never scanned.
func TestWedgeCountsQueuedFramesDropped(t *testing.T) {
	faults := faultinject.New()
	det, frame := testDetector(t, faults)
	p, err := New(det, Config{Deadline: 1 * time.Second, HangTimeout: 500 * time.Millisecond, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	faults.HardStallLevel(0, 2*time.Second)
	if !p.Submit(frame) {
		t.Fatal("first submit rejected")
	}
	time.Sleep(100 * time.Millisecond) // scanner enters the hard stall
	queued := 0
	for i := 0; i < 3; i++ {
		if p.Submit(frame) {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("no frames queued behind the hung scan")
	}
	// Drain results until the channel closes (wedge).
	sawHung := false
	for r := range p.Results() {
		if errors.Is(r.Err, ErrHung) {
			sawHung = true
		}
	}
	if !sawHung {
		t.Fatal("no ErrHung result before Results closed")
	}
	s := p.Stats()
	if s.FramesIn != s.FramesOut+s.FramesDropped+s.InFlight || s.InFlight != 0 {
		t.Errorf("conservation broken: in %d, out %d, dropped %d, inflight %d",
			s.FramesIn, s.FramesOut, s.FramesDropped, s.InFlight)
	}
	if s.FramesDropped != uint64(queued) {
		t.Errorf("dropped %d, want %d (the frames queued behind the hang)", s.FramesDropped, queued)
	}
}

// TestSoftStallDoesNotWedge: a stall that observes its context is cut off
// by the per-frame deadline — the well-behaved slow path must never trip
// the watchdog, or every overload would wedge pipelines instead of
// engaging the degradation ladder.
func TestSoftStallDoesNotWedge(t *testing.T) {
	faults := faultinject.New()
	det, frame := testDetector(t, faults)
	p, err := New(det, Config{Deadline: 1 * time.Second, HangTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	faults.StallLevel(0, 10*time.Second)
	r := step(t, p, frame)
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("soft stall returned %v, want deadline exceeded", r.Err)
	}
	if p.Wedged() {
		t.Fatal("soft stall wedged the pipeline")
	}
	faults.Reset()
	if r := step(t, p, frame); r.Err != nil {
		t.Fatalf("stream dead after soft stall: %v", r.Err)
	}
	if s := p.Stats(); s.FramesHung != 0 || s.Wedged {
		t.Errorf("hung/wedged = %d/%v after soft stall, want 0/false", s.FramesHung, s.Wedged)
	}
}

// TestHangTimeoutResolution pins the Config.HangTimeout contract: zero
// defaults to 4x the frame deadline, negative disables.
func TestHangTimeoutResolution(t *testing.T) {
	det, _ := testDetector(t, nil)
	p, err := New(det, Config{Deadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if want := 400 * time.Millisecond; p.HangTimeout() != want {
		t.Errorf("default HangTimeout = %v, want %v (4x deadline)", p.HangTimeout(), want)
	}
	p.Close()

	det2, _ := testDetector(t, nil)
	p2, err := New(det2, Config{Deadline: 100 * time.Millisecond, HangTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p2.HangTimeout() != 0 {
		t.Errorf("disabled HangTimeout = %v, want 0", p2.HangTimeout())
	}
	p2.Close()
}
