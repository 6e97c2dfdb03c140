// Package rt is the deadline-aware streaming runtime around core.Detector.
//
// The paper's premise is a hard real-time budget: at 60 fps HDTV the
// detector gets 16.6 ms per frame (Section 1), and internal/das computes
// exactly that budget (das.BudgetAt, das.MaxDetectorLatency). This package
// enforces it. A Pipeline wraps a detector for a continuous frame feed and
// guarantees forward progress under overload, poison input, and injected
// faults:
//
//   - every frame runs under a context deadline derived from the frame
//     budget, so a stalled scale cannot block the stream;
//   - a degradation controller sheds work in a principled order when the
//     deadline is missed repeatedly — finest pyramid levels first (the
//     paper's memory-limited hardware runs the same trade at 2 scales),
//     then scan workers — and restores it with hysteresis once latency
//     recovers;
//   - the input queue is bounded and drops the oldest frame under
//     backpressure (a stale frame is worthless to a driver-assistance
//     system);
//   - each frame is scanned under per-goroutine panic recovery, so a
//     poison frame yields a FrameResult with Err set instead of killing
//     the stream;
//   - a liveness watchdog (Config.HangTimeout) bounds how long a scan may
//     run in non-cancellable code: a frame whose scan ignores its context
//     past the hang timeout is declared hung (FrameResult{Err: ErrHung}),
//     its goroutine is abandoned under leak accounting, and the pipeline
//     transitions to the terminal Wedged state — a stuck goroutine cannot
//     be killed, only detached, so the only safe recovery is a fresh
//     pipeline (internal/serve's supervisor treats Wedged like a crash).
//
// Stats() exposes a snapshot of the runtime counters for dashboards and
// the cmd/pddetect -stream mode; internal/rt/faultinject drives the
// deterministic degradation tests.
package rt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/das"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/roi"
	"repro/internal/track"
)

// Config tunes the streaming runtime. The zero value is not usable: either
// FPS or Deadline must be set. All other fields have working defaults.
type Config struct {
	// FPS is the target frame rate; the per-frame deadline defaults to the
	// das frame budget at this rate (das.BudgetAt: 1/FPS seconds).
	FPS float64
	// Deadline overrides FPS with an explicit per-frame latency budget.
	Deadline time.Duration
	// Queue bounds the input queue. When full, the oldest queued frame is
	// dropped to make room (drop-oldest). Default 4.
	Queue int
	// MaxShed caps how many finest pyramid levels the controller may shed
	// below the detector's own configuration. Default 2 (the paper's
	// hardware operating point keeps 2 of the finest scales' worth of
	// memory; shedding the two finest levels of a 1.1-step pyramid is the
	// software analogue).
	MaxShed int
	// MinWorkers floors the worker-reduction rungs of the ladder.
	// Default 1.
	MinWorkers int
	// DegradeAfter is how many consecutive deadline misses trigger a step
	// down the ladder. Default 3.
	DegradeAfter int
	// RecoverAfter is how many consecutive comfortable frames (latency at
	// most RecoverMargin of the deadline) trigger a step back up.
	// Default 8.
	RecoverAfter int
	// RecoverMargin is the fraction of the deadline a frame must finish
	// within to count toward recovery; the gap between it and 1.0 is the
	// hysteresis band that prevents oscillation. Default 0.7.
	RecoverMargin float64
	// HangTimeout arms the liveness watchdog: a frame whose scan runs this
	// long past dispatch without returning is declared hung. Well-behaved
	// slow code is cancelled by the per-frame context at the deadline and
	// never comes near this bound — only a scan stuck in non-cancellable
	// code (ignoring its context) can trip it. On expiry the frame is
	// emitted as FrameResult{Err: ErrHung}, the stuck goroutine is
	// abandoned (leak-accounted in Stats and the obs registry), and the
	// pipeline wedges terminally. 0 defaults to 4x the frame deadline;
	// negative disables the watchdog (restoring the old block-forever
	// semantics, where only Close's context cancellation can unwind a
	// cooperative stall and a true hang blocks the pipeline for good).
	HangTimeout time.Duration
	// ROI, if non-nil, enables the temporal scan scheduler (internal/roi)
	// and adds an ROI rung to the degradation ladder: under deadline
	// pressure the pipeline first switches to track-guided region scanning
	// (dense only every ROI.FullEvery-th frame — cheap, and lossless for
	// tracked pedestrians with new entrants bounded by the cadence) before
	// it starts shedding finest pyramid levels; recovery re-engages full
	// dense scanning every frame. The pipeline feeds an internal tracker
	// from every successful frame at every rung, so the track state is warm
	// the moment the ROI rung engages; if ROI scanning re-engages after
	// frames at another rung, the scheduler restarts with a full scan.
	ROI *roi.Config
	// Metrics, if non-nil, receives the pipeline's observability stream:
	// per-stage latency histograms (via a core detect recorder shared by
	// every rung), frame/wait histograms, arena hit/miss counters, the
	// abandoned-scanner ledger, and a per-frame trace ring retaining the
	// slowest frames. Frame counts are not mirrored there; Stats is their
	// only ledger. Recording is allocation-free; nil (the default) disables
	// everything. A *obs.Metrics registry may be shared across pipelines
	// (internal/serve shares one across its workers) — each pipeline gets
	// its own frame-stage recorder lane internally.
	Metrics *obs.Metrics
	// MetricsID labels this pipeline's entries in the trace ring (the
	// FrameTrace.Worker field); internal/serve sets it to the worker index.
	MetricsID int
}

// deadline resolves the per-frame budget.
func (c Config) deadline() (time.Duration, error) {
	if c.Deadline > 0 {
		return c.Deadline, nil
	}
	if c.FPS > 0 {
		b, err := das.BudgetAt(0, c.FPS)
		if err != nil {
			return 0, fmt.Errorf("rt: %w", err)
		}
		return time.Duration(b.FrameTime * float64(time.Second)), nil
	}
	return 0, errors.New("rt: config needs FPS or Deadline")
}

// withDefaults fills the zero-valued tuning knobs.
func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 4
	}
	if c.MaxShed < 0 {
		c.MaxShed = 0
	} else if c.MaxShed == 0 {
		c.MaxShed = 2
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 3
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 8
	}
	if c.RecoverMargin <= 0 || c.RecoverMargin >= 1 {
		c.RecoverMargin = 0.7
	}
	return c
}

// Rung is one operating point of the degradation ladder.
type Rung struct {
	// SkipFinest is the number of finest pyramid levels shed at this rung
	// (core.Config.SkipFinest).
	SkipFinest int
	// Workers is the scan worker count at this rung.
	Workers int
	// ROI marks a rung that scans under the temporal ROI scheduler instead
	// of dense every frame. Only present when Config.ROI is set.
	ROI bool
}

// ladder builds the degradation ladder from the detector's own operating
// point: rung 0 is the configured detector; with ROI enabled, rung 1 keeps
// the full pyramid but scans track-guided regions (ROI scanning loses no
// tracked pedestrian and bounds entrant latency by the cadence, so it is
// the cheapest-to-recover shed and comes first); the next MaxShed rungs
// shed one more finest pyramid level each (the biggest win per step — the
// finest level carries the most windows); the remaining rungs halve the
// scan workers down to minWorkers at maximum shed. Every rung below the
// ROI rung keeps ROI scanning: level shedding under pressure composes with
// region restriction. Frame dropping is not a rung: the bounded queue
// drops stale frames at every rung.
func ladder(baseSkip, baseWorkers, maxShed, minWorkers int, roiEnabled bool) []Rung {
	rungs := []Rung{{SkipFinest: baseSkip, Workers: baseWorkers}}
	if roiEnabled {
		rungs = append(rungs, Rung{SkipFinest: baseSkip, Workers: baseWorkers, ROI: true})
	}
	for s := 1; s <= maxShed; s++ {
		rungs = append(rungs, Rung{SkipFinest: baseSkip + s, Workers: baseWorkers, ROI: roiEnabled})
	}
	for w := baseWorkers / 2; w >= minWorkers && w < rungs[len(rungs)-1].Workers; w /= 2 {
		rungs = append(rungs, Rung{SkipFinest: baseSkip + maxShed, Workers: w, ROI: roiEnabled})
	}
	return rungs
}

// PanicError wraps a panic recovered while scanning a frame. The stream
// continues; the poison frame's FrameResult carries this error.
type PanicError struct {
	Value any
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("rt: panic while scanning frame: %v", e.Value)
}

// ErrHung is the per-frame error of a scan abandoned by the liveness
// watchdog: it ran HangTimeout past dispatch without returning, so it is
// stuck in code that ignores its context. The carrying FrameResult is the
// pipeline's last — the pipeline is Wedged after emitting it, and the
// stream needs a fresh pipeline (internal/serve restarts the worker).
var ErrHung = errors.New("rt: frame scan hung; pipeline wedged")

// FrameResult is the outcome of one submitted frame.
type FrameResult struct {
	// Seq is the frame's submission sequence number (0-based).
	Seq uint64
	// Detections is the detector output; nil when Err is set.
	Detections []eval.Detection
	// Err is the per-frame failure, if any: a detection error, the
	// context error of a frame cut off at its deadline, or a *PanicError
	// for a recovered poison frame. The stream continues either way.
	Err error
	// Wait is how long the frame sat in the input queue.
	Wait time.Duration
	// Latency is the detection wall time (excluding Wait).
	Latency time.Duration
	// Missed reports that the frame exceeded its deadline.
	Missed bool
	// Rung is the degradation rung the frame was scanned at.
	Rung int
	// ROI reports that the frame was scanned under a track-guided region
	// restriction (an ROI rung's non-cadence frame). Cadence frames at an
	// ROI rung and every frame at a dense rung report false.
	ROI bool
}

// frameItem is one queued frame.
type frameItem struct {
	seq   uint64
	frame *imgproc.Gray
	at    time.Time
}

// Claim states of the frame in flight (Pipeline.claim).
const (
	claimNone     uint32 = iota // scan in progress, nobody has accounted it
	claimScanner                // scanner finished in time; result is authoritative
	claimWatchdog               // watchdog fired first; frame is hung, scanner abandoned
)

// Pipeline is a running streaming detection runtime. Create it with New,
// feed it with Submit, consume Results, and Close it when done. The
// consumer must drain Results; the pipeline applies backpressure (and
// eventually drops frames) when it does not.
type Pipeline struct {
	cfg         Config
	deadline    time.Duration
	hangTimeout time.Duration // resolved; 0 = watchdog disabled
	rungs       []Rung
	dets        []*core.Detector

	in      chan frameItem
	results chan FrameResult

	// The scan runs on a dedicated scanner goroutine so the run loop can
	// keep a watchdog on it: scanIn hands one frame over, scanOut (buffered
	// 1) returns its result. claim arbitrates the hang race — exactly one
	// of {scanner, watchdog} accounts each frame: the scanner claims on
	// completion before sending the result; the watchdog claims on timeout
	// before wedging. A scanner that loses the claim was abandoned — it
	// discards its late result and exits once scanIn closes.
	scanIn  chan frameItem
	scanOut chan FrameResult
	claim   atomic.Uint32

	// wedged flips once, when the watchdog abandons a scan: the pipeline is
	// terminally broken (its scanner goroutine is stuck), intake is closed,
	// and only teardown remains.
	wedged atomic.Bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	stop       chan struct{}
	done       chan struct{}
	closeOnce  sync.Once

	// closeMu gates intake against Close and the wedge path: Submit holds
	// the read side while it enqueues; Close and wedge take the write side
	// to flip closed. This makes the pair safe to race — once the lock is
	// held, no Submit is mid-enqueue, so the run loop's shutdown drain
	// observes every accepted frame and the
	// FramesIn == FramesOut + FramesDropped invariant survives both Close
	// and a wedge.
	closeMu sync.RWMutex
	closed  bool

	seq   atomic.Uint64
	ctrl  *controller
	stats *stats

	// Temporal ROI state (all nil/zero when Config.ROI is nil). The
	// scheduler, tracker, region set, and track-box scratch are owned by
	// the scanner goroutine — it plans regions, scans, and feeds the
	// tracker strictly in sequence, which is exactly the one-frame-at-a-
	// time contract core.RegionSet demands. roiPrev remembers whether the
	// previous frame was planned at an ROI rung (a re-engage resets the
	// scheduler so the first frame back is a full scan — the track state
	// may be stale).
	sched      *roi.Scheduler
	tracker    *track.Tracker
	regions    *core.RegionSet
	trackBoxes []geom.Rect
	roiPrev    bool

	// Observability (all nil when Config.Metrics is nil). rec is this
	// pipeline's frame-stage recorder lane: the scanner goroutine runs one
	// frame at a time, so every rung detector can share it.
	metrics *obs.Metrics
	rec     *obs.DetectRecorder
	arena   *core.Arena
}

// New builds the degradation ladder for the detector and starts the
// pipeline's scan loop. The detector's configuration (mode, scales,
// workers, probes) is rung 0 of the ladder.
func New(det *core.Detector, cfg Config) (*Pipeline, error) {
	deadline, err := cfg.deadline()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	base := det.Config()
	baseWorkers := base.Workers
	if baseWorkers <= 0 {
		baseWorkers = runtime.GOMAXPROCS(0)
	}
	rungs := ladder(base.SkipFinest, baseWorkers, cfg.MaxShed, cfg.MinWorkers, cfg.ROI != nil)
	// All rungs share one frame arena: the scan loop runs one frame at a
	// time, and a rung switch should reuse the already-grown scratch
	// buffers rather than warm up private ones.
	if base.Arena == nil {
		base.Arena = core.NewArena()
	}
	// With ROI enabled, all rungs also share one region set (the mutable
	// restriction the scan loop plans into before each frame) and one
	// tracker feeding the scheduler.
	var sched *roi.Scheduler
	var tracker *track.Tracker
	var regions *core.RegionSet
	if cfg.ROI != nil {
		var err error
		if sched, err = roi.New(*cfg.ROI); err != nil {
			return nil, err
		}
		regions = core.NewRegionSet()
		base.Regions = regions
		tracker = track.New(track.DefaultConfig())
	}
	var rec *obs.DetectRecorder
	if cfg.Metrics != nil {
		rec = obs.NewDetectRecorder(cfg.Metrics)
		base.Metrics = rec
	}
	dets := make([]*core.Detector, len(rungs))
	for i, r := range rungs {
		c := base
		c.SkipFinest = r.SkipFinest
		c.Workers = r.Workers
		d, err := core.NewDetector(det.Model(), c)
		if err != nil {
			return nil, fmt.Errorf("rt: rung %d (%+v): %w", i, r, err)
		}
		dets[i] = d
	}
	hang := cfg.HangTimeout
	switch {
	case hang < 0:
		hang = 0 // watchdog disabled
	case hang == 0:
		hang = 4 * deadline
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	p := &Pipeline{
		cfg:         cfg,
		deadline:    deadline,
		hangTimeout: hang,
		rungs:       rungs,
		dets:        dets,
		in:          make(chan frameItem, cfg.Queue),
		results:     make(chan FrameResult, cfg.Queue+1),
		scanIn:      make(chan frameItem),
		scanOut:     make(chan FrameResult, 1),
		baseCtx:     baseCtx,
		baseCancel:  baseCancel,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		ctrl: newController(len(rungs), cfg.DegradeAfter, cfg.RecoverAfter,
			cfg.RecoverMargin),
		stats:   newStats(),
		metrics: cfg.Metrics,
		rec:     rec,
		arena:   base.Arena,
		sched:   sched,
		tracker: tracker,
		regions: regions,
	}
	go p.scanLoop()
	go p.run()
	return p, nil
}

// Deadline returns the per-frame latency budget the pipeline enforces.
func (p *Pipeline) Deadline() time.Duration { return p.deadline }

// HangTimeout returns the resolved liveness watchdog bound (0 when the
// watchdog is disabled).
func (p *Pipeline) HangTimeout() time.Duration { return p.hangTimeout }

// Wedged reports whether the watchdog has abandoned a hung scan and moved
// the pipeline to its terminal state: Submit refuses intake, Results is (or
// is about to be) closed after the final ErrHung result, and the only
// remaining transition is Close. The stuck scanner goroutine is leak-
// accounted in Stats().FramesHung and, when metrics are wired, the
// obs.AbandonedScanners gauge (decremented if it ever unsticks and exits).
func (p *Pipeline) Wedged() bool { return p.wedged.Load() }

// Ladder returns the degradation ladder, rung 0 first.
func (p *Pipeline) Ladder() []Rung {
	out := make([]Rung, len(p.rungs))
	copy(out, p.rungs)
	return out
}

// Results is the stream of per-frame outcomes, in scan order. It is closed
// by Close.
func (p *Pipeline) Results() <-chan FrameResult { return p.results }

// Submit offers a frame to the pipeline without blocking. When the queue is
// full the oldest queued frame is dropped to make room (a newer frame is
// always worth more to a driver-assistance system than a stale one). It
// returns false if the frame could not be accepted — the pipeline is
// closed or wedged, or the queue stayed full even after the eviction
// attempt.
func (p *Pipeline) Submit(frame *imgproc.Gray) bool {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return false
	}
	it := frameItem{seq: p.seq.Add(1) - 1, frame: frame, at: time.Now()}
	if p.stats.tryEnqueue(p.in, it) {
		return true
	}
	// Queue full: evict the oldest queued frame, then retry once. The
	// eviction and the retry race the scan loop benignly — at worst the
	// scan loop dequeued a frame in between and no eviction was needed.
	// Both the eviction and the enqueue commit their channel operation and
	// their counter update under the stats lock, so a concurrent Stats()
	// snapshot can never catch the queue and the counters disagreeing.
	p.stats.tryEvict(p.in)
	if p.stats.tryEnqueue(p.in, it) {
		return true
	}
	return false
}

// Flush blocks until every accepted frame has been scanned or dropped. It
// does not stop the pipeline; use it before reading a final Stats snapshot
// or before Close when every submitted frame matters. On a closed pipeline
// it is a no-op that returns immediately.
func (p *Pipeline) Flush() {
	for {
		select {
		case <-p.done:
			return
		default:
		}
		if p.stats.snapshot(p).InFlight == 0 {
			return
		}
		select {
		case <-p.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// Close stops the pipeline: in-flight work is cancelled, queued frames are
// discarded (counted as dropped), and Results is closed. It is idempotent —
// every call blocks until shutdown is complete — and safe to call
// concurrently with Submit, Flush, and other Close calls; the supervisor
// restart path in internal/serve relies on all three properties.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		p.closeMu.Lock()
		p.closed = true
		p.closeMu.Unlock()
		close(p.stop)
		p.baseCancel()
	})
	<-p.done
}

// Closed reports whether Close has been called. Submit returns false and
// Flush returns immediately once it does.
func (p *Pipeline) Closed() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// Stats returns a snapshot of the runtime counters.
func (p *Pipeline) Stats() Stats { return p.stats.snapshot(p) }

// run is the frame loop: it pulls frames off the bounded queue, hands each
// to the scanner goroutine, watches the scan with the hang watchdog, feeds
// the outcome back to the controller, and emits the result. On a hang it
// wedges the pipeline and exits.
func (p *Pipeline) run() {
	defer close(p.done)
	defer close(p.results)
	// Frames still queued when Close (or a wedge) fires were accepted but
	// will never be scanned; count them as dropped so the stats invariant
	// FramesIn == FramesOut + FramesDropped + InFlight holds after
	// shutdown with InFlight 0. Both Close and the wedge path flip the
	// intake gate before this drain runs, so no Submit can add to the
	// queue afterwards.
	defer func() {
		for p.stats.tryEvict(p.in) {
		}
	}()
	// Closing scanIn lets the scanner goroutine exit: immediately when it
	// is idle, or whenever it unsticks if it was abandoned mid-hang.
	defer close(p.scanIn)
	for {
		select {
		case <-p.stop:
			return
		case it := <-p.in:
			// Close may have fired while this loop slept on the queue; with
			// both channels ready the select above picks randomly, so
			// re-check stop before scanning. Without this, frames queued at
			// Close time were nondeterministically scanned instead of
			// discarded, contradicting Close's documented drop semantics
			// (and flaking TestCloseCountsQueuedFramesDropped).
			select {
			case <-p.stop:
				p.stats.dropDequeued()
				return
			default:
			}
			r, hung := p.dispatch(it)
			if hung {
				p.wedge(r)
				return
			}
			p.ctrl.observe(r, p.deadline)
			p.stats.observe(r)
			select {
			case p.results <- r:
			case <-p.stop:
				return
			}
		}
	}
}

// dispatch hands one frame to the scanner goroutine and waits for its
// result under the hang watchdog. It returns hung=true when the watchdog
// claimed the frame: the returned FrameResult is the synthesized ErrHung
// outcome and the scanner goroutine has been abandoned mid-scan.
func (p *Pipeline) dispatch(it frameItem) (r FrameResult, hung bool) {
	p.claim.Store(claimNone)
	p.scanIn <- it
	if p.hangTimeout <= 0 {
		return <-p.scanOut, false
	}
	t := time.NewTimer(p.hangTimeout)
	defer t.Stop()
	select {
	case r = <-p.scanOut:
		return r, false
	case <-t.C:
		if !p.claim.CompareAndSwap(claimNone, claimWatchdog) {
			// The scanner finished in the same instant the timer fired and
			// won the claim; its result is in (or about to hit) scanOut.
			return <-p.scanOut, false
		}
		wait := time.Since(it.at) - p.hangTimeout
		if wait < 0 {
			wait = 0
		}
		return FrameResult{
			Seq:     it.seq,
			Err:     ErrHung,
			Wait:    wait,
			Latency: p.hangTimeout,
			Missed:  true,
			Rung:    p.ctrl.current(),
		}, true
	}
}

// wedge moves the pipeline to its terminal state after the watchdog
// abandoned a hung scan: intake closes, the hung frame is accounted (it
// left the queue but will never be scanned to completion by anyone we can
// wait for), the abandoned goroutine is leak-accounted, and the final
// ErrHung result is emitted. The caller (run) returns immediately after,
// draining the queue as dropped and closing Results.
func (p *Pipeline) wedge(r FrameResult) {
	p.closeMu.Lock()
	p.closed = true
	p.closeMu.Unlock()
	p.wedged.Store(true)
	// Politeness: if the stuck code ever starts observing its context
	// again, let it unwind promptly rather than running to completion.
	p.baseCancel()
	p.stats.observeHung(r)
	p.recordHung(r)
	select {
	case p.results <- r:
	case <-p.stop:
	}
}

// scanLoop is the dedicated scanner goroutine: it scans one frame at a
// time on behalf of the run loop. Splitting the scan onto its own
// goroutine is what makes the hang watchdog possible — the run loop can
// abandon a scan stuck in non-cancellable code, which an in-line call
// never could. A scanner that loses the completion claim discards its
// late result (the watchdog already emitted ErrHung for that frame) and
// retires the abandoned-goroutine ledger entry on its way out.
func (p *Pipeline) scanLoop() {
	for it := range p.scanIn {
		rung := p.ctrl.current()
		restricted := p.planROI(rung, it.frame)
		wait := time.Since(it.at)
		var arenaGets0, arenaMisses0 uint64
		if p.metrics != nil {
			arenaGets0, arenaMisses0 = p.arena.Counters()
		}
		ctx, cancel := context.WithTimeout(p.baseCtx, p.deadline)
		start := time.Now()
		dets, err := detectFrame(ctx, p.dets[rung], it.frame)
		cancel()
		lat := time.Since(start)
		if p.tracker != nil && err == nil {
			// Feed the tracker at every rung, not just ROI rungs: warm
			// track state is what makes engaging the ROI rung safe, and it
			// costs nothing compared to the scan. Failed frames are skipped
			// (no detections to associate; tracks coast on misses instead).
			p.tracker.Update(dets)
		}
		r := FrameResult{
			Seq:        it.seq,
			Detections: dets,
			Err:        err,
			Wait:       wait,
			Latency:    lat,
			Missed:     lat > p.deadline || errors.Is(err, context.DeadlineExceeded),
			Rung:       rung,
			ROI:        restricted,
		}
		if p.claim.CompareAndSwap(claimNone, claimScanner) {
			p.recordFrame(r, arenaGets0, arenaMisses0)
			p.scanOut <- r
			continue
		}
		// Abandoned: the watchdog gave up on this frame long ago and the
		// pipeline is wedged. The late result is discarded (the frame was
		// already accounted as hung); this goroutine's only remaining job
		// is to check out of the leak ledger and exit via the closed
		// scanIn.
		if p.metrics != nil {
			p.metrics.AbandonedScanners.Add(-1)
		}
	}
}

// planROI prepares the shared region set for one frame: at an ROI rung it
// asks the scheduler for a plan built from the live track boxes and
// installs it (dense cadence frames clear the restriction); at a dense
// rung it clears the restriction and forgets the schedule, so a later
// re-engage starts with a full scan. It returns whether the frame will be
// scanned restricted, and counts the plan in the stats. Runs on the
// scanner goroutine only; no-op without a scheduler.
func (p *Pipeline) planROI(rung int, frame *imgproc.Gray) bool {
	if p.sched == nil {
		return false
	}
	if !p.rungs[rung].ROI {
		p.roiPrev = false
		p.regions.Clear()
		return false
	}
	if !p.roiPrev {
		// Re-engaging after dense frames: the scheduler's clock restarts so
		// the first ROI-rung frame is a full scan, re-anchoring the track
		// state before any restricted frame trusts it.
		p.sched.Reset()
		p.roiPrev = true
	}
	p.trackBoxes = p.tracker.AppendLiveBoxes(p.trackBoxes[:0])
	plan := p.sched.Plan(p.trackBoxes, frame.W, frame.H)
	if plan.Full {
		p.regions.Clear()
	} else {
		p.regions.Set(plan.Regions)
	}
	p.stats.observeROIPlan(plan)
	return !plan.Full
}

// recordFrame records one frame outcome in the obs registry: frame/wait
// histograms, arena hit/miss deltas, and a trace-ring entry carrying the
// per-stage breakdown the rung detector accumulated for this frame. Runs on
// the scan loop only; no-op when metrics are disabled.
func (p *Pipeline) recordFrame(r FrameResult, arenaGets0, arenaMisses0 uint64) {
	m := p.metrics
	if m == nil {
		return
	}
	m.Frame.Observe(r.Latency)
	m.Wait.Observe(r.Wait)
	// Frame-local deltas keep the obs counters additive when several
	// pipelines share one registry (and possibly one arena); a shared
	// arena's concurrent checkouts may be attributed to whichever frame
	// observed them, but the totals stay exact.
	gets, misses := p.arena.Counters()
	frameGets, frameMisses := gets-arenaGets0, misses-arenaMisses0
	m.ArenaMisses.Add(frameMisses)
	if frameGets > frameMisses {
		m.ArenaHits.Add(frameGets - frameMisses)
	}
	tr := obs.FrameTrace{
		Seq:       r.Seq,
		Worker:    p.cfg.MetricsID,
		Rung:      r.Rung,
		Wait:      r.Wait,
		Total:     r.Latency,
		Deadline:  p.deadline,
		Margin:    p.deadline - r.Latency,
		Stages:    p.rec.FrameStages(),
		ArenaMiss: frameMisses > 0,
		Missed:    r.Missed,
		Failed:    r.Err != nil,
	}
	m.Traces.Record(&tr)
}

// recordHung records a watchdog-abandoned frame in the obs registry. The
// hung frame is observed like an emitted one (its ErrHung result is the
// pipeline's last), its trace carries the Hung flag with a zero stage
// breakdown (a stuck scan never reports where it is), and the abandoned-
// scanner ledger goes up. The scanner's own recordFrame never runs for this
// frame — the claim CAS guarantees exactly one of the two records it. Runs
// on the run loop; no-op when metrics are disabled.
func (p *Pipeline) recordHung(r FrameResult) {
	m := p.metrics
	if m == nil {
		return
	}
	m.AbandonedScanners.Add(1)
	m.Frame.Observe(r.Latency)
	m.Wait.Observe(r.Wait)
	tr := obs.FrameTrace{
		Seq:      r.Seq,
		Worker:   p.cfg.MetricsID,
		Rung:     r.Rung,
		Wait:     r.Wait,
		Total:    r.Latency,
		Deadline: p.deadline,
		Margin:   p.deadline - r.Latency,
		Missed:   true,
		Failed:   true,
		Hung:     true,
	}
	m.Traces.Record(&tr)
}

// detectFrame runs one detection under panic recovery: a poison frame (for
// example a frame whose pixel buffer is shorter than its header claims)
// panics somewhere in the feature extractor and is returned as a
// *PanicError instead of killing the stream. Worker-pool goroutines inside
// core recover their own panics; this guards the scan goroutine itself.
func detectFrame(ctx context.Context, det *core.Detector, frame *imgproc.Gray) (dets []eval.Detection, err error) {
	defer func() {
		if r := recover(); r != nil {
			dets, err = nil, &PanicError{Value: r}
		}
	}()
	return det.DetectCtx(ctx, frame)
}
