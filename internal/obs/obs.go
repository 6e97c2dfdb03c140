// Package obs is the zero-allocation observability layer of the detection
// stack: atomic counters and gauges, preallocated log-spaced latency
// histograms, a per-frame stage recorder, and a fixed-size ring of frame
// trace spans retaining the slowest frames.
//
// The paper's headline claims are latency claims (one 64x128 window every
// 36 cycles, a 1080p frame in under 10 ms, 60 fps at two scales), so every
// performance PR against this tree needs per-stage accounting to be
// measurable: where did a slow frame spend its budget — HOG, pyramid
// build, window scan, NMS, or queue wait? This package answers that
// without disturbing the hot path it measures:
//
//   - recording is allocation-free and branch-cheap: counters and
//     histogram buckets are plain atomics, trace slots are preallocated,
//     and every hook is nil-safe so the metrics-off path costs one
//     pointer test (pinned by TestObsRecordAllocs, and transitively by
//     the hog/core allocation budgets with metrics enabled);
//   - a Metrics value is a passive registry — nothing in this package
//     starts goroutines or timers; the instrumented layers own their
//     timing boundaries and push durations in;
//   - snapshots (histogram quantiles, trace dumps, Prometheus rendering)
//     allocate freely: they run on scrape paths, not frame paths.
//
// Wiring: core.Config.Metrics carries a *DetectRecorder through the
// detect path (hog front end, featpyr level builds, scan, NMS),
// rt.Config.Metrics adds the frame and queue-wait histograms, arena
// hit/miss counts, the abandoned-scanner ledger, and per-frame traces
// (frame counts live in rt.Stats alone), and internal/serve exposes the
// registry as GET /metricsz (Prometheus text) and GET /tracez
// (slowest-frames JSON).
package obs

import (
	"sync/atomic"
	"time"
)

// Stage identifies one timed stage of the per-frame detection path. The
// stages partition the work a frame pays for between entering a detector
// and its detections being emitted; StageDecode is recorded by callers
// that decode an on-the-wire frame first (internal/serve).
type Stage int

const (
	// StageDecode is wire-format decoding (e.g. PGM parsing in serve).
	StageDecode Stage = iota
	// StageHOGCells is gradient + orientation-binned cell histogramming.
	StageHOGCells
	// StageHOGNorm is block assembly and normalization.
	StageHOGNorm
	// StagePyramid is pyramid construction past the base feature map (all
	// level resampling; in image-pyramid mode the whole per-level
	// resize+HOG loop is accounted here).
	StagePyramid
	// StageScan is the sliding-window classifier scan over all levels.
	StageScan
	// StageNMS is non-maximum suppression.
	StageNMS

	// NumStages is the number of Stage values; arrays indexed by Stage
	// have this length.
	NumStages int = iota
)

var stageNames = [NumStages]string{
	"decode", "hog_cells", "hog_norm", "pyramid", "scan", "nms",
}

// String returns the stage's snake_case label (used as the Prometheus
// stage="..." label value).
func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageNames returns the labels of all stages, indexed by Stage.
func StageNames() [NumStages]string { return stageNames }

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are nil-safe no-ops on a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Metrics is the passive metrics registry of one detection service: the
// per-stage and per-frame latency histograms, the arena and cascade
// counters, the abandoned-scanner leak ledger, and the slowest-frames
// trace ring. Frame outcome counters (intake, drops, misses, errors,
// degrade/recover, ROI plans) are not here: rt.Pipeline counts each frame
// once, in its Stats. The zero value is ready to use; all
// fields record atomically, so one Metrics may be shared by every
// pipeline, worker, and scrape handler of a process. Per-frame *stage*
// scratch is not here — that lives in DetectRecorder, one per concurrent
// detect lane.
type Metrics struct {
	// Stage holds one latency histogram per detection stage.
	Stage [NumStages]Histogram
	// PyrLevel observes each individual pyramid-level build (featpyr
	// resample or fixed-point scale), finer-grained than StagePyramid.
	PyrLevel Histogram
	// Frame observes end-to-end per-frame detection latency (excluding
	// queue wait).
	Frame Histogram
	// Wait observes time spent queued before the scan loop picked the
	// frame up.
	Wait Histogram

	// AbandonedScanners gauges scan goroutines the liveness watchdog
	// abandoned that have not yet unstuck and exited. A goroutine stuck in
	// non-cancellable code cannot be killed, only detached; this gauge is
	// the leak ledger that lets goroutine-settling checks (internal/chaos)
	// tolerate exactly the accounted-for leaks and no more. It outlives the
	// pipeline that abandoned the goroutine, which is why it lives here and
	// not in rt.Stats.
	AbandonedScanners Gauge
	// ArenaHits and ArenaMisses count frame-arena scratch checkouts that
	// were served from the pool versus freshly grown.
	ArenaHits, ArenaMisses Counter

	// CascadeWindows counts windows entering the staged early-rejection
	// scorer, CascadeAccepted the subset that survived every stage (and so
	// received an exact score), and CascadeBlocks the HOG blocks actually
	// evaluated — the work the dense scan would have multiplied out is
	// CascadeWindows * blocks-per-window, so the pruning ratio falls out of
	// these three numbers. Scan shards accumulate locally and fold in once
	// per shard, keeping the window loop free of shared-cache-line traffic.
	CascadeWindows, CascadeAccepted, CascadeBlocks Counter
	// CascadeStageRejects[k] counts windows rejected right after cascade
	// stage k (stage-rank order, not raster row). Window geometries deeper
	// than the bank clamp into the last slot.
	CascadeStageRejects [CascadeStages]Counter

	// Traces retains the slowest frames seen so far.
	Traces TraceRing
}

// CascadeStages is the size of the per-stage rejection counter bank; the
// paper's 64x128 window has 16 block-row stages, so 32 leaves headroom for
// exotic window geometries without making the registry grow per detector.
const CascadeStages = 32

// CascadeStats is a point-in-time snapshot of the cascade counters, as
// exposed on /statsz.
type CascadeStats struct {
	Windows      uint64   `json:"windows"`
	Accepted     uint64   `json:"accepted"`
	Blocks       uint64   `json:"blocks_evaluated"`
	MeanBlocks   float64  `json:"mean_blocks_evaluated"`
	StageRejects []uint64 `json:"stage_rejects,omitempty"`
}

// CascadeSnapshot captures the cascade counters. MeanBlocks is the average
// number of blocks evaluated per staged window (0 with no traffic);
// StageRejects is trimmed of trailing all-zero stages.
func (m *Metrics) CascadeSnapshot() CascadeStats {
	if m == nil {
		return CascadeStats{}
	}
	s := CascadeStats{
		Windows:  m.CascadeWindows.Load(),
		Accepted: m.CascadeAccepted.Load(),
		Blocks:   m.CascadeBlocks.Load(),
	}
	if s.Windows > 0 {
		s.MeanBlocks = float64(s.Blocks) / float64(s.Windows)
	}
	last := -1
	var rejects [CascadeStages]uint64
	for i := range m.CascadeStageRejects {
		rejects[i] = m.CascadeStageRejects[i].Load()
		if rejects[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.StageRejects = append([]uint64(nil), rejects[:last+1]...)
	}
	return s
}

// NewMetrics returns an empty registry. (The zero value works too; the
// constructor exists for symmetry and future options.)
func NewMetrics() *Metrics { return &Metrics{} }

// DetectRecorder is the per-lane stage recorder handed to a detector via
// core.Config.Metrics: it folds stage durations into the shared Metrics
// histograms and keeps the current frame's per-stage breakdown for the
// trace span. One recorder serves one frame at a time (the rt scan loop
// is single-frame; concurrent pipelines each get their own recorder,
// sharing the registry). All methods are nil-safe, so instrumented code
// records unconditionally and the metrics-off path costs one branch.
type DetectRecorder struct {
	m     *Metrics
	frame [NumStages]int64 // ns per stage of the frame in flight
}

// NewDetectRecorder returns a recorder feeding m.
func NewDetectRecorder(m *Metrics) *DetectRecorder {
	return &DetectRecorder{m: m}
}

// Metrics returns the shared registry (nil on a nil recorder).
func (r *DetectRecorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.m
}

// BeginFrame clears the per-frame stage breakdown. The detector calls it
// at the top of each frame.
func (r *DetectRecorder) BeginFrame() {
	if r == nil {
		return
	}
	r.frame = [NumStages]int64{}
}

// Observe records d against stage s: the shared histogram gets one
// observation and the current frame's breakdown accumulates (a stage may
// be recorded multiple times per frame, e.g. per-level HOG in image
// pyramid mode).
func (r *DetectRecorder) Observe(s Stage, d time.Duration) {
	if r == nil || r.m == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	r.frame[s] += int64(d)
	r.m.Stage[s].Observe(d)
}

// ObserveLevel records one pyramid-level build duration.
func (r *DetectRecorder) ObserveLevel(d time.Duration) {
	if r == nil || r.m == nil {
		return
	}
	r.m.PyrLevel.Observe(d)
}

// LevelTimer returns the per-level build histogram for layers that time
// levels themselves (featpyr.ScaleConfig.LevelTimer), or nil.
func (r *DetectRecorder) LevelTimer() *Histogram {
	if r == nil || r.m == nil {
		return nil
	}
	return &r.m.PyrLevel
}

// FrameStages returns the per-stage nanosecond breakdown of the frame in
// flight (zeroes on a nil recorder).
func (r *DetectRecorder) FrameStages() [NumStages]int64 {
	if r == nil {
		return [NumStages]int64{}
	}
	return r.frame
}
