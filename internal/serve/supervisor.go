// Package serve is the fault-tolerant multi-stream serving layer over the
// detection runtime: many concurrent camera streams sharing one process,
// where one crashing, hanging, or slow stream must not take down the rest.
//
// It composes three pieces, each usable on its own:
//
//   - Supervisor owns N worker rt.Pipelines (one per stream shard, streams
//     pinned by ID), restarts a worker killed by a panic, a poisoned
//     stream, or a liveness-watchdog wedge (rt.ErrHung) with capped
//     exponential backoff plus jitter, and aggregates the workers'
//     rt.Stats;
//   - Server exposes the supervisor over HTTP with per-request deadline
//     propagation, a bounded admission queue that load-sheds with 429 +
//     Retry-After, a circuit breaker (closed -> open -> half-open),
//     /healthz, /readyz and /statsz endpoints, and graceful drain;
//   - Client retries transient failures (429/503/504, network errors) with
//     exponential backoff plus jitter under an end-to-end context deadline.
//
// The paper's per-frame real-time budget is enforced one layer down by
// internal/rt; this package supplies the always-on, multi-camera serving
// contract that GPU/SoC deployments of this detector family assume.
// cmd/pdserve serves a model, examples/loadgen drives a server past
// capacity, internal/rt/faultinject scripts the deterministic
// panic->restart, overload->shed, hang->wedge->restart, and
// trip->probe->recover tests, and internal/chaos soaks the whole stack
// under a seeded fault schedule.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/imgproc"
	"repro/internal/rt"
)

// DetectorFactory builds the detector for one worker. It is called once at
// startup and again on every restart of that worker, so a restart gets a
// fresh detector (and a fresh pipeline) with no state carried over from the
// crashed incarnation.
type DetectorFactory func(worker int) (*core.Detector, error)

// workerPipe is the slice of rt.Pipeline the supervisor depends on. The
// production implementation is always *rt.Pipeline; tests inject
// misbehaving implementations (never-responding, always-wedged) that would
// be awkward to provoke through a real detector.
type workerPipe interface {
	Submit(frame *imgproc.Gray) bool
	Results() <-chan rt.FrameResult
	Close()
	Stats() rt.Stats
	Deadline() time.Duration
	HangTimeout() time.Duration
	Wedged() bool
}

// SupervisorConfig tunes the supervisor.
type SupervisorConfig struct {
	// Workers is the number of worker pipelines. Streams are pinned to
	// workers by stream ID modulo Workers. Default 1.
	Workers int
	// Pipeline is the per-worker streaming runtime configuration; it must
	// carry an FPS or Deadline budget (rt.Config).
	Pipeline rt.Config
	// RestartBackoff is the delay before the first restart of a worker;
	// each consecutive restart doubles it up to RestartBackoffMax, and the
	// actual delay is jittered uniformly over [d/2, d] so a herd of
	// restarting workers does not thunder back in step. A successful frame
	// resets the doubling. Defaults 50ms / 5s.
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
	// RestartAfterErrors restarts a worker after this many consecutive
	// erroring frames even without a panic — a poisoned stream whose every
	// frame fails is indistinguishable from a wedged worker from the
	// outside. 0 means the default of 16; negative disables.
	RestartAfterErrors int
	// ResultTimeout bounds how long a worker waits for the result of a
	// submitted frame before declaring the pipeline result-silent and
	// restarting it. This is the supervisor's own liveness net under the
	// pipeline's watchdog: even if the pipeline never reports (watchdog
	// disabled, or wedged without emitting), the worker recovers. 0 derives
	// the bound from the pipeline — Deadline + 2*HangTimeout when the
	// watchdog is enabled, unbounded when it is disabled; negative forces
	// unbounded.
	ResultTimeout time.Duration
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 50 * time.Millisecond
	}
	if c.RestartBackoffMax < c.RestartBackoff {
		c.RestartBackoffMax = 5 * time.Second
		if c.RestartBackoffMax < c.RestartBackoff {
			c.RestartBackoffMax = c.RestartBackoff
		}
	}
	if c.RestartAfterErrors == 0 {
		c.RestartAfterErrors = 16
	}
	if c.RestartAfterErrors < 0 {
		c.RestartAfterErrors = 0
	}
	return c
}

// Errors surfaced by Supervisor.Do.
var (
	// ErrWorkerRestarting: the stream's worker is in its restart backoff;
	// the request fails fast instead of queueing behind a dead pipeline.
	ErrWorkerRestarting = errors.New("serve: worker restarting")
	// ErrSupervisorClosed: the supervisor has been closed.
	ErrSupervisorClosed = errors.New("serve: supervisor closed")
)

// job is one detection request routed to a worker.
type job struct {
	ctx   context.Context
	frame *imgproc.Gray
	reply chan jobResult // buffered (1): the worker never blocks on reply
}

type jobResult struct {
	dets []eval.Detection
	err  error
}

// worker is one supervised stream shard.
type worker struct {
	id   int
	jobs chan job
}

// WorkerStatus describes one worker in a stats snapshot.
type WorkerStatus struct {
	ID int `json:"id"`
	// State is "running", "wedged" (the live pipeline's watchdog tripped
	// and the worker is about to retire it), or "restarting".
	State    string `json:"state"`
	Restarts uint64 `json:"restarts"`
	// Wedges counts hang escalations: each time this worker's pipeline was
	// declared hung (rt.ErrHung, a result-silent timeout, or intake refused
	// by a wedged pipeline) and torn down.
	Wedges uint64 `json:"wedges"`
	// Pipeline is the live pipeline's rt.Stats with the cumulative counters
	// of every retired incarnation added in (restarts do not reset them).
	// The point-in-time fields (rung, ladder, wedged, deadline, in-flight)
	// are the live pipeline's alone, and zero while restarting.
	Pipeline rt.Stats `json:"pipeline"`
}

// SupervisorStats is a snapshot of the supervisor and all workers.
type SupervisorStats struct {
	Workers  []WorkerStatus `json:"workers"`
	Restarts uint64         `json:"restarts"`
	// Wedges totals the hang escalations across workers.
	Wedges uint64 `json:"wedges"`
	// Aggregate folds every worker's pipeline stats together (sums for
	// counters and in-flight frames, max for worst-case latencies,
	// frame-weighted means, the most degraded live rung, wedged if any
	// live pipeline is).
	Aggregate rt.Stats `json:"aggregate"`
}

// Supervisor owns N worker pipelines and keeps them alive: a worker whose
// frame scan panics (rt.PanicError), hangs past the liveness watchdog
// (rt.ErrHung / a result-silent ResultTimeout), or whose stream turns into
// a run of consecutive failures is torn down and rebuilt from the
// DetectorFactory under capped exponential backoff with jitter, while the
// other workers keep serving their streams untouched.
type Supervisor struct {
	cfg     SupervisorConfig
	newPipe func(worker int) (workerPipe, error)
	workers []*worker

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu       sync.Mutex
	rng      *rand.Rand
	pipes    []workerPipe // current pipeline per worker; nil while restarting
	prior    []rt.Stats   // cumulative counters of retired pipelines
	restarts []uint64     // restart events per worker
	wedges   []uint64     // hang escalations per worker
	consec   []int        // consecutive restarts (reset by a healthy frame)
}

// NewSupervisor builds the initial pipeline for every worker (failing fast
// on a broken factory or pipeline config) and starts the worker loops.
func NewSupervisor(factory DetectorFactory, cfg SupervisorConfig) (*Supervisor, error) {
	if factory == nil {
		return nil, errors.New("serve: nil detector factory")
	}
	// Every incarnation is labelled with the worker index so its entries in
	// the shared trace ring (rt.Config.Metrics) stay attributable across
	// restarts.
	newPipe := func(id int) (workerPipe, error) {
		det, err := factory(id)
		if err != nil {
			return nil, fmt.Errorf("detector factory: %w", err)
		}
		pc := cfg.Pipeline
		pc.MetricsID = id
		return rt.New(det, pc)
	}
	return newSupervisorWith(newPipe, cfg)
}

// newSupervisorWith is the injectable constructor behind NewSupervisor:
// tests substitute pipe builders that return scripted implementations.
func newSupervisorWith(newPipe func(int) (workerPipe, error), cfg SupervisorConfig) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:      cfg,
		newPipe:  newPipe,
		stop:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		pipes:    make([]workerPipe, cfg.Workers),
		prior:    make([]rt.Stats, cfg.Workers),
		restarts: make([]uint64, cfg.Workers),
		wedges:   make([]uint64, cfg.Workers),
		consec:   make([]int, cfg.Workers),
	}
	for i := 0; i < cfg.Workers; i++ {
		pipe, err := newPipe(i)
		if err != nil {
			for _, p := range s.pipes {
				if p != nil {
					p.Close()
				}
			}
			return nil, fmt.Errorf("serve: worker %d: %w", i, err)
		}
		s.pipes[i] = pipe
		s.workers = append(s.workers, &worker{id: i, jobs: make(chan job)})
	}
	for i, w := range s.workers {
		s.wg.Add(1)
		go s.runWorker(w, s.pipes[i])
	}
	return s, nil
}

// Workers returns the number of worker pipelines.
func (s *Supervisor) Workers() int { return len(s.workers) }

// Running returns the number of workers with a live, non-wedged pipeline —
// the capacity a readiness probe should report. Workers in restart backoff
// or wedged-pending-teardown do not count.
func (s *Supervisor) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.pipes {
		if p != nil && !p.Wedged() {
			n++
		}
	}
	return n
}

// workerFor pins a stream ID to a worker.
func (s *Supervisor) workerFor(stream int) int {
	n := len(s.workers)
	return ((stream % n) + n) % n
}

// Do runs one frame of the given stream through its worker and returns the
// detections. The context bounds the wait for a worker slot and for the
// result; the scan itself additionally runs under the worker pipeline's
// per-frame budget. Do is safe for concurrent use; requests for the same
// stream serialize on that stream's worker.
//
// The caller's context wins at every wait point: a context that is already
// done returns its error immediately rather than racing a ready channel in
// select (Go picks ready cases at random, so without the explicit check an
// expired request could still consume a worker slot — or, worse, report
// ErrSupervisorClosed for what was the caller's own cancellation).
func (s *Supervisor) Do(ctx context.Context, stream int, frame *imgproc.Gray) ([]eval.Detection, error) {
	if frame == nil {
		return nil, errors.New("serve: nil frame")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := s.workers[s.workerFor(stream)]
	j := job{ctx: ctx, frame: frame, reply: make(chan jobResult, 1)}
	select {
	case w.jobs <- j:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.stop:
		return nil, ErrSupervisorClosed
	}
	if err := ctx.Err(); err != nil {
		// The job may still reach the worker; its own ctx check (or the
		// buffered reply) keeps the worker from blocking on our behalf.
		return nil, err
	}
	select {
	case r := <-j.reply:
		return r.dets, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.stop:
		return nil, ErrSupervisorClosed
	}
}

// Close stops every worker, aborts in-flight scans, and waits for the
// worker loops to exit. It is idempotent.
func (s *Supervisor) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		// Closing the current pipelines aborts any in-flight frame via its
		// context, unblocking workers parked on a slow scan. Snapshot under
		// the lock, close outside it: the workers' own retirePipe calls
		// take the lock too (rt.Close is idempotent, so double-close with
		// the owning worker is fine).
		s.mu.Lock()
		pipes := append([]workerPipe(nil), s.pipes...)
		s.mu.Unlock()
		for _, p := range pipes {
			if p != nil {
				p.Close()
			}
		}
	})
	s.wg.Wait()
}

// installPipe publishes a worker's new pipeline for stats readers.
func (s *Supervisor) installPipe(id int, p workerPipe) {
	s.mu.Lock()
	s.pipes[id] = p
	s.mu.Unlock()
}

// retirePipe closes a worker's pipeline and folds its final counters into
// the worker's running total. Its point-in-time state stays behind: the
// rebuilt pipeline is not wedged or degraded because this one was.
func (s *Supervisor) retirePipe(id int, p workerPipe) {
	p.Close()
	s.mu.Lock()
	s.prior[id] = addCounters(s.prior[id], p.Stats())
	s.pipes[id] = nil
	s.mu.Unlock()
}

// noteHealthy resets a worker's consecutive-restart count: the rebuilt
// worker has proven itself with a successful frame, so the next fault
// starts the backoff ladder from the bottom again.
func (s *Supervisor) noteHealthy(id int) {
	s.mu.Lock()
	s.consec[id] = 0
	s.mu.Unlock()
}

// noteWedge records a hang escalation for the worker: its pipeline was
// declared hung and is about to be torn down and rebuilt.
func (s *Supervisor) noteWedge(id int) {
	s.mu.Lock()
	s.wedges[id]++
	s.mu.Unlock()
}

// restartDelay records a restart event and returns the backoff before the
// next incarnation: base * 2^(n-1) capped at the max, jittered over
// [d/2, d].
func (s *Supervisor) restartDelay(id int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restarts[id]++
	s.consec[id]++
	return jitter(s.rng, BackoffDelay(s.consec[id], s.cfg.RestartBackoff, s.cfg.RestartBackoffMax))
}

// BackoffDelay is the un-jittered capped exponential backoff for the n-th
// consecutive attempt (n >= 1; smaller n counts as 1): base * 2^(n-1),
// capped at max without overflowing. The supervisor's restarts, the
// client's retries, and the gateway's ejections all climb this ladder.
func BackoffDelay(n int, base, max time.Duration) time.Duration {
	if n < 1 {
		n = 1
	}
	d := base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max || d <= 0 {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// jitter draws a delay uniformly from [d/2, d], so a herd backing off
// together does not come back in step. The caller owns rng's locking.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// resultWait resolves the bounded wait for one frame's result from the
// given pipeline incarnation. <= 0 means unbounded.
func (s *Supervisor) resultWait(pipe workerPipe) time.Duration {
	if s.cfg.ResultTimeout != 0 {
		return s.cfg.ResultTimeout
	}
	if h := pipe.HangTimeout(); h > 0 {
		// The pipeline's own watchdog should fire first (after at most
		// Deadline of queue wait plus HangTimeout of scan); the extra
		// HangTimeout of slack keeps this net strictly behind it, so a
		// result-silent timeout here means the pipeline's liveness
		// machinery itself failed.
		return pipe.Deadline() + 2*h
	}
	return 0
}

// runWorker is one worker's supervision loop: serve the pipeline until it
// needs a restart, retire it, back off, rebuild, repeat.
func (s *Supervisor) runWorker(w *worker, pipe workerPipe) {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			if pipe != nil {
				s.retirePipe(w.id, pipe)
			}
			return
		default:
		}
		if pipe == nil {
			p, err := s.newPipe(w.id)
			if err != nil {
				// The factory itself is failing; keep backing off.
				if !s.sleepServingErrors(w, s.restartDelay(w.id)) {
					return
				}
				continue
			}
			pipe = p
			s.installPipe(w.id, pipe)
		}
		again := s.servePipe(w, pipe)
		s.retirePipe(w.id, pipe)
		pipe = nil
		if !again {
			return
		}
		if !s.sleepServingErrors(w, s.restartDelay(w.id)) {
			return
		}
	}
}

// servePipe feeds jobs to one pipeline incarnation in lock-step (one frame
// in flight at a time, so results pair with requests). It returns true when
// the worker must be restarted — a frame panicked or hung, the
// consecutive-error budget ran out, the pipeline went result-silent past
// the ResultTimeout bound, or it refused intake — and false on shutdown.
// Every restart-worthy outcome fails the in-flight job fast with a
// retryable error before the teardown begins, so no caller waits out a
// backoff.
func (s *Supervisor) servePipe(w *worker, pipe workerPipe) bool {
	consecErrs := 0
	wait := s.resultWait(pipe)
	for {
		select {
		case <-s.stop:
			return false
		case j := <-w.jobs:
			if err := j.ctx.Err(); err != nil {
				j.reply <- jobResult{err: err}
				continue
			}
			if !pipe.Submit(j.frame) {
				// Intake refused: the pipeline is closed — or wedged —
				// under us.
				j.reply <- jobResult{err: fmt.Errorf("%w (worker %d)", ErrWorkerRestarting, w.id)}
				if pipe.Wedged() {
					s.noteWedge(w.id)
				}
				return true
			}
			// A fresh timer per job (not deferred-stopped: defers would
			// accumulate across the loop; the teardown paths below may
			// strand one timer to fire unheard, which is harmless).
			var res rt.FrameResult
			var timeout <-chan time.Time
			var tmr *time.Timer
			if wait > 0 {
				tmr = time.NewTimer(wait)
				timeout = tmr.C
			}
			select {
			case r, ok := <-pipe.Results():
				if !ok {
					j.reply <- jobResult{err: fmt.Errorf("%w (worker %d)", ErrWorkerRestarting, w.id)}
					if pipe.Wedged() {
						s.noteWedge(w.id)
					}
					return true
				}
				res = r
			case <-timeout:
				// Result-silent: the frame went in and nothing came out
				// within the liveness bound — the pipeline's own watchdog
				// should have reported first. Treat it exactly like a
				// wedge: fail the job fast and rebuild. (retirePipe's
				// Close aborts whatever the pipeline was doing.)
				j.reply <- jobResult{err: fmt.Errorf("%w (worker %d: result-silent past %v)", ErrWorkerRestarting, w.id, wait)}
				s.noteWedge(w.id)
				return true
			case <-s.stop:
				j.reply <- jobResult{err: ErrSupervisorClosed}
				return false
			}
			if tmr != nil {
				tmr.Stop()
			}
			j.reply <- jobResult{dets: res.Detections, err: res.Err}
			var pe *rt.PanicError
			switch {
			case errors.Is(res.Err, rt.ErrHung):
				// The pipeline's watchdog abandoned the scan and wedged the
				// pipeline: it will never serve again. Escalate to a
				// restart immediately — the caller already has the ErrHung
				// result (retryable at the HTTP layer).
				s.noteWedge(w.id)
				return true
			case errors.As(res.Err, &pe):
				// The scan panicked: treat the worker as killed and rebuild
				// it from scratch rather than trusting detector state that
				// a panic unwound through.
				return true
			case res.Err != nil:
				consecErrs++
				if s.cfg.RestartAfterErrors > 0 && consecErrs >= s.cfg.RestartAfterErrors {
					return true
				}
			default:
				consecErrs = 0
				s.noteHealthy(w.id)
			}
		}
	}
}

// sleepServingErrors waits out a restart backoff while failing the worker's
// incoming jobs fast with ErrWorkerRestarting (instead of letting them
// queue against a pipeline that does not exist). It returns false when the
// supervisor shut down during the wait.
func (s *Supervisor) sleepServingErrors(w *worker, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return false
		case <-t.C:
			return true
		case j := <-w.jobs:
			j.reply <- jobResult{err: fmt.Errorf("%w (worker %d)", ErrWorkerRestarting, w.id)}
		}
	}
}

// Stats returns a snapshot of every worker plus the aggregate counters.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SupervisorStats{}
	for i := range s.workers {
		ws := WorkerStatus{ID: i, State: "restarting", Restarts: s.restarts[i], Wedges: s.wedges[i], Pipeline: s.prior[i]}
		if p := s.pipes[i]; p != nil {
			ws.State = "running"
			if p.Wedged() {
				ws.State = "wedged"
			}
			ws.Pipeline = addCounters(p.Stats(), s.prior[i])
		}
		out.Workers = append(out.Workers, ws)
		out.Restarts += s.restarts[i]
		out.Wedges += s.wedges[i]
		out.Aggregate = mergeStats(out.Aggregate, ws.Pipeline)
	}
	return out
}

// addCounters adds b's cumulative counters to a: frame counts add, worst
// cases take the max, and the means re-weight by emitted frames. a's
// point-in-time fields (rung, ladder, wedged, deadline, in-flight) are kept
// as they are.
func addCounters(a, b rt.Stats) rt.Stats {
	out := a
	out.FramesIn += b.FramesIn
	out.FramesOut += b.FramesOut
	out.FramesDropped += b.FramesDropped
	out.DeadlineMisses += b.DeadlineMisses
	out.Errors += b.Errors
	out.Panics += b.Panics
	out.FramesHung += b.FramesHung
	out.DegradeEvents += b.DegradeEvents
	out.RecoverEvents += b.RecoverEvents
	out.ROIScans += b.ROIScans
	out.ROIFullScans += b.ROIFullScans
	out.ROIRegions += b.ROIRegions
	if b.MaxWait > out.MaxWait {
		out.MaxWait = b.MaxWait
	}
	if b.MaxLatency > out.MaxLatency {
		out.MaxLatency = b.MaxLatency
	}
	if n := a.FramesOut + b.FramesOut; n > 0 {
		out.AvgWait = (a.AvgWait*time.Duration(a.FramesOut) + b.AvgWait*time.Duration(b.FramesOut)) / time.Duration(n)
		out.AvgLatency = (a.AvgLatency*time.Duration(a.FramesOut) + b.AvgLatency*time.Duration(b.FramesOut)) / time.Duration(n)
	}
	return out
}

// mergeStats folds two workers' snapshots: counters via addCounters,
// in-flight frames add, the wedged flag ORs, and the ladder position
// reports the more degraded live pipeline (an aggregate is only as healthy
// as its worst worker). A restarting worker has no ladder (Rungs 0) and
// contributes counters only.
func mergeStats(a, b rt.Stats) rt.Stats {
	out := addCounters(a, b)
	out.InFlight += b.InFlight
	out.Wedged = a.Wedged || b.Wedged
	if b.Rungs > 0 && (a.Rungs == 0 || b.Rung > a.Rung) {
		out.Rung, out.SkipFinest, out.Workers, out.ROIRung = b.Rung, b.SkipFinest, b.Workers, b.ROIRung
	}
	if b.Rungs > out.Rungs {
		out.Rungs = b.Rungs
	}
	if b.Deadline > out.Deadline {
		out.Deadline = b.Deadline
	}
	return out
}
