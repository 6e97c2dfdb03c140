package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/rt/faultinject"
)

// TestHangEscalationRestartsWorker is the hang acceptance scenario: a
// ctx-ignoring stall wedges worker 0's pipeline, the supervisor escalates
// the wedge to a restart while stream 1 keeps serving, and after the fault
// clears the worker recovers — with every goroutine (including the
// watchdog-abandoned scanner, once its stall elapses) accounted for.
func TestHangEscalationRestartsWorker(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := obs.NewMetrics()
	faults := faultinject.New()
	// Generous timing (the race suite shares one CPU across packages);
	// only the ordering deadline < hang < stall matters.
	const stall = 3 * time.Second
	sup, err := NewSupervisor(testFactory(t, map[int]*faultinject.Faults{0: faults}), SupervisorConfig{
		Workers: 2,
		Pipeline: rt.Config{
			Deadline:    1 * time.Second,
			HangTimeout: 600 * time.Millisecond,
			Metrics:     m,
		},
		RestartBackoff:    20 * time.Millisecond,
		RestartBackoffMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	frame := testFrame()

	for stream := 0; stream < 2; stream++ {
		if _, err := sup.Do(ctx, stream, frame); err != nil {
			t.Fatalf("stream %d healthy frame: %v", stream, err)
		}
	}

	// Hard-stall worker 0: the scan ignores its context, so only the
	// liveness watchdog can report it.
	faults.HardStallLevel(0, stall)
	_, err = sup.Do(ctx, 0, frame)
	if !errors.Is(err, rt.ErrHung) {
		t.Fatalf("hung stream 0 returned %v, want rt.ErrHung", err)
	}

	// Stream 1 keeps serving while worker 0 is wedged/restarting.
	for i := 0; i < 5; i++ {
		if _, err := sup.Do(ctx, 1, frame); err != nil {
			t.Fatalf("stream 1 frame %d failed during worker 0 wedge: %v", i, err)
		}
	}

	// Clear the fault; worker 0 must come back after the backoff. While it
	// is down requests fail fast (restarting, or hung again if a rebuilt
	// incarnation raced the Reset) instead of hanging the caller.
	faults.Reset()
	recoverDeadline := time.Now().Add(15 * time.Second)
	for {
		_, err := sup.Do(ctx, 0, frame)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrWorkerRestarting) && !errors.Is(err, rt.ErrHung) {
			t.Fatalf("stream 0 during wedge recovery: unexpected error %v", err)
		}
		if time.Now().After(recoverDeadline) {
			t.Fatalf("worker 0 did not recover from the wedge; last error: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := sup.Stats()
	if st.Workers[0].Wedges < 1 {
		t.Errorf("worker 0 wedges = %d, want >= 1", st.Workers[0].Wedges)
	}
	if st.Workers[0].Restarts < 1 {
		t.Errorf("worker 0 restarts = %d, want >= 1", st.Workers[0].Restarts)
	}
	if st.Workers[1].Wedges != 0 || st.Workers[1].Restarts != 0 {
		t.Errorf("worker 1 wedges/restarts = %d/%d, want 0/0 (fault must stay confined)",
			st.Workers[1].Wedges, st.Workers[1].Restarts)
	}
	if st.Wedges < 1 {
		t.Errorf("total wedges = %d, want >= 1", st.Wedges)
	}
	if st.Aggregate.FramesHung < 1 {
		t.Errorf("aggregate FramesHung = %d, want >= 1", st.Aggregate.FramesHung)
	}
	if agg := st.Aggregate; agg.FramesIn != agg.FramesOut+agg.FramesDropped+agg.InFlight {
		t.Errorf("aggregate conservation broken: in %d != out %d + dropped %d + inflight %d",
			agg.FramesIn, agg.FramesOut, agg.FramesDropped, agg.InFlight)
	}
	if st.Workers[0].State != "running" {
		t.Errorf("worker 0 state %q after recovery, want running", st.Workers[0].State)
	}
	if st.Workers[0].Pipeline.Wedged {
		t.Error("worker 0 pipeline reports wedged after recovery: the retired incarnation's state leaked")
	}

	sup.Close()
	// Goroutine settling net of accounted leaks: the abandoned scanner is
	// still asleep inside its hard stall right after Close, and the obs
	// gauge says exactly how many such scanners remain. Wait for the ledger
	// to drain, then for the raw count to reach baseline.
	deadline := time.Now().Add(10 * time.Second)
	for m.AbandonedScanners.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned-scanner ledger did not drain: %d", m.AbandonedScanners.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	settleGoroutines(t, baseline)
	for _, ws := range sup.Stats().Workers {
		if ws.Pipeline.Wedged {
			t.Errorf("worker %d reports a wedged pipeline after Close, want none (wedged pipes retired)", ws.ID)
		}
	}
}

// fakePipe is an injectable workerPipe for supervision tests: it can
// swallow frames forever (silent), refuse intake as wedged, or answer
// every frame immediately.
type fakePipe struct {
	silent  bool
	wedged  bool
	hang    time.Duration
	results chan rt.FrameResult
	once    sync.Once
}

func newFakePipe(silent, wedged bool) *fakePipe {
	return &fakePipe{silent: silent, wedged: wedged, results: make(chan rt.FrameResult, 1)}
}

func (f *fakePipe) Submit(frame *imgproc.Gray) bool {
	if f.wedged {
		return false
	}
	if !f.silent {
		f.results <- rt.FrameResult{}
	}
	return true
}
func (f *fakePipe) Results() <-chan rt.FrameResult { return f.results }
func (f *fakePipe) Close()                         { f.once.Do(func() { close(f.results) }) }
func (f *fakePipe) Stats() rt.Stats                { return rt.Stats{Wedged: f.wedged} }
func (f *fakePipe) Deadline() time.Duration        { return 50 * time.Millisecond }
func (f *fakePipe) HangTimeout() time.Duration     { return f.hang }
func (f *fakePipe) Wedged() bool                   { return f.wedged }

// TestDoHonorsContext: Do must return the caller's context error at every
// wait point, even against a pipe that never responds — a dead worker must
// cost the caller its deadline, never an unbounded hang, and an
// already-expired request must not consume a worker slot.
func TestDoHonorsContext(t *testing.T) {
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{
			name: "pre-cancelled",
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, func() {}
			},
			want: context.Canceled,
		},
		{
			name: "deadline while awaiting result",
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 50*time.Millisecond)
			},
			want: context.DeadlineExceeded,
		},
		{
			name: "cancelled while awaiting result",
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				go func() { time.Sleep(30 * time.Millisecond); cancel() }()
				return ctx, cancel
			},
			want: context.Canceled,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// ResultTimeout < 0: the supervisor waits on the silent pipe
			// unboundedly, so only the caller's ctx can end the request.
			sup, err := newSupervisorWith(
				func(int) (workerPipe, error) { return newFakePipe(true, false), nil },
				SupervisorConfig{Workers: 1, ResultTimeout: -1},
			)
			if err != nil {
				t.Fatal(err)
			}
			defer sup.Close()
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			_, err = sup.Do(ctx, 0, testFrame())
			if !errors.Is(err, tc.want) {
				t.Fatalf("Do returned %v, want %v", err, tc.want)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("Do took %v against a never-responding pipe", elapsed)
			}
		})
	}
}

// TestResultSilentPipeRestarts: a pipeline that accepts frames but never
// produces results trips the supervisor's own ResultTimeout net — the job
// fails fast with a retryable error, the wedge is counted, and the rebuilt
// (healthy) incarnation serves.
func TestResultSilentPipeRestarts(t *testing.T) {
	var builds atomic.Int64
	sup, err := newSupervisorWith(
		func(int) (workerPipe, error) {
			if builds.Add(1) == 1 {
				return newFakePipe(true, false), nil // first incarnation: silent
			}
			return newFakePipe(false, false), nil // rebuilt: healthy
		},
		SupervisorConfig{
			Workers:           1,
			ResultTimeout:     50 * time.Millisecond,
			RestartBackoff:    10 * time.Millisecond,
			RestartBackoffMax: 50 * time.Millisecond,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	ctx := context.Background()

	start := time.Now()
	_, err = sup.Do(ctx, 0, testFrame())
	if !errors.Is(err, ErrWorkerRestarting) {
		t.Fatalf("result-silent pipe: Do returned %v, want ErrWorkerRestarting", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("result-silent detection took %v", elapsed)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := sup.Do(ctx, 0, testFrame()); err == nil {
			break
		} else if !errors.Is(err, ErrWorkerRestarting) {
			t.Fatalf("unexpected error during restart: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("worker did not recover after result-silent restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := sup.Stats()
	if st.Wedges < 1 {
		t.Errorf("wedges = %d, want >= 1 (result-silent counts as a wedge)", st.Wedges)
	}
	if builds.Load() < 2 {
		t.Errorf("pipe builds = %d, want >= 2 (silent incarnation replaced)", builds.Load())
	}
}

// statsPipe is a fakePipe that reports a scripted rt.Stats snapshot.
type statsPipe struct {
	*fakePipe
	st rt.Stats
}

func (p statsPipe) Stats() rt.Stats { return p.st }

// TestRestartedWorkerReportsLiveState: a worker rebuilt after a wedge
// carries its dead incarnation's counters forward, but its state — wedged,
// rung, operating point, deadline — is the live pipeline's alone, on
// /statsz and on the /metricsz gauges counted from it.
func TestRestartedWorkerReportsLiveState(t *testing.T) {
	dead := rt.Stats{
		FramesIn: 5, FramesOut: 5, DeadlineMisses: 2, Errors: 1, FramesHung: 1,
		DegradeEvents: 3, ROIScans: 2, ROIFullScans: 1, ROIRegions: 4,
		Wedged: true, Rung: 3, Rungs: 4, SkipFinest: 2, Workers: 1, ROIRung: true,
		Deadline: time.Second, MaxLatency: 2 * time.Second, AvgLatency: time.Second,
	}
	live := rt.Stats{
		FramesIn: 3, FramesOut: 3, Rungs: 4, Workers: 4,
		Deadline: 50 * time.Millisecond, MaxLatency: time.Millisecond, AvgLatency: time.Millisecond,
	}
	var builds atomic.Int64
	sup, err := newSupervisorWith(
		func(int) (workerPipe, error) {
			if builds.Add(1) == 1 {
				return statsPipe{newFakePipe(false, true), dead}, nil
			}
			return statsPipe{newFakePipe(false, false), live}, nil
		},
		SupervisorConfig{Workers: 1, RestartBackoff: 10 * time.Millisecond, RestartBackoffMax: 50 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	srv := NewServer(sup, ServerConfig{})
	scrape := func() map[string]float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
		return parseExposition(t, rec.Body.String())
	}

	// The first incarnation is wedged and at an ROI rung until the worker
	// notices on its first request.
	if mm := scrape(); mm["pd_wedged_pipelines"] != 1 || mm["pd_roi_active_pipelines"] != 1 {
		t.Errorf("before the restart: wedged %v, roi active %v; want 1, 1",
			mm["pd_wedged_pipelines"], mm["pd_roi_active_pipelines"])
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := sup.Do(context.Background(), 0, testFrame()); err == nil {
			break
		} else if !errors.Is(err, ErrWorkerRestarting) {
			t.Fatalf("unexpected error during restart: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("worker did not recover from the wedged incarnation")
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := sup.Stats()
	ws := st.Workers[0]
	if ws.State != "running" || ws.Restarts != 1 {
		t.Fatalf("worker state %q restarts %d, want running after 1 restart", ws.State, ws.Restarts)
	}
	want := live
	want.FramesIn, want.FramesOut = 8, 8
	want.DeadlineMisses, want.Errors, want.FramesHung, want.DegradeEvents = 2, 1, 1, 3
	want.ROIScans, want.ROIFullScans, want.ROIRegions = 2, 1, 4
	want.MaxLatency = 2 * time.Second
	want.AvgLatency = (5*time.Second + 3*time.Millisecond) / 8
	if ws.Pipeline != want {
		t.Errorf("worker pipeline stats\n got %+v\nwant %+v", ws.Pipeline, want)
	}
	if st.Aggregate != want {
		t.Errorf("aggregate\n got %+v\nwant %+v", st.Aggregate, want)
	}
	if mm := scrape(); mm["pd_wedged_pipelines"] != 0 || mm["pd_roi_active_pipelines"] != 0 || mm["pd_frames_in_total"] != 8 {
		t.Errorf("after recovery: wedged %v, roi active %v, frames in %v; want 0, 0, 8",
			mm["pd_wedged_pipelines"], mm["pd_roi_active_pipelines"], mm["pd_frames_in_total"])
	}
}

// TestResultWaitDerivation pins the ResultTimeout resolution: explicit
// value wins, zero derives Deadline + 2*HangTimeout from a watchdogged
// pipe, and a watchdog-less pipe gets an unbounded wait.
func TestResultWaitDerivation(t *testing.T) {
	s := &Supervisor{cfg: SupervisorConfig{ResultTimeout: time.Second}}
	if got := s.resultWait(&fakePipe{hang: time.Minute}); got != time.Second {
		t.Errorf("explicit ResultTimeout: got %v, want 1s", got)
	}
	s = &Supervisor{}
	if got, want := s.resultWait(&fakePipe{hang: 100 * time.Millisecond}), 250*time.Millisecond; got != want {
		t.Errorf("derived ResultTimeout: got %v, want %v (50ms deadline + 2*100ms hang)", got, want)
	}
	if got := s.resultWait(&fakePipe{}); got != 0 {
		t.Errorf("watchdog-less pipe: got %v, want 0 (unbounded)", got)
	}
	s = &Supervisor{cfg: SupervisorConfig{ResultTimeout: -1}}
	if got := s.resultWait(&fakePipe{hang: time.Second}); got >= 0 {
		t.Errorf("negative ResultTimeout: got %v, want unbounded (<0)", got)
	}
}

// TestReadyzReflectsWedgedWorkers: a server whose every worker pipeline is
// wedged fails its readiness probe with "no workers running" and exposes
// the wedge counters on /metricsz.
func TestReadyzReflectsWedgedWorkers(t *testing.T) {
	sup, err := newSupervisorWith(
		func(int) (workerPipe, error) { return newFakePipe(false, true), nil },
		SupervisorConfig{
			Workers:           1,
			RestartBackoff:    50 * time.Millisecond,
			RestartBackoffMax: 200 * time.Millisecond,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	srv := NewServer(sup, ServerConfig{})

	// Drive one request into the wedged pipe so the worker notices. The
	// reply lands before the worker books the wedge, so poll for it.
	if _, err := sup.Do(context.Background(), 0, testFrame()); !errors.Is(err, ErrWorkerRestarting) {
		t.Fatalf("wedged pipe: Do returned %v, want ErrWorkerRestarting", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sup.Stats().Wedges < 1 {
		if time.Now().After(deadline) {
			t.Fatal("wedge never booked")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if ready, reason := srv.Ready(); ready || reason != "no workers running" {
		t.Errorf("Ready() = %v, %q; want false, \"no workers running\"", ready, reason)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d with all workers wedged, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "no workers running") {
		t.Errorf("/readyz body %q lacks the wedge reason", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `pd_worker_wedges_total{worker="0"} 1`) {
		t.Errorf("/metricsz lacks the per-worker wedge counter:\n%s", body)
	}
	if !strings.Contains(body, "pd_workers_running 0") {
		t.Errorf("/metricsz lacks pd_workers_running 0:\n%s", body)
	}
}
