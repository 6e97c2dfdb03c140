// Package core implements the paper's primary contribution as a library:
// multi-scale sliding-window pedestrian detection with HOG features and a
// linear SVM, supporting both the conventional image-pyramid method and the
// proposed HOG-feature-pyramid method (Section 4), plus the two
// single-window classification scenarios of Figure 3 used by the Table 1 /
// Figure 4 analysis.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/featpyr"
	"repro/internal/geom"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/svm"
)

// PyramidMode selects how the detector covers scales.
type PyramidMode int

const (
	// ImagePyramid is the conventional method: the frame is resized per
	// scale and HOG features are recomputed at every level. It is built
	// as the OctavePyramid whose octaves are one ScaleStep apart.
	ImagePyramid PyramidMode = iota
	// FeaturePyramid is the paper's method: HOG features are extracted
	// once at native scale and the normalized feature map is down-sampled
	// per level (each level interpolated directly from the base map).
	FeaturePyramid
	// FeaturePyramidChained down-samples each level from the previous one,
	// matching the hardware's cascaded scaler modules (Figure 6).
	FeaturePyramidChained
	// FeaturePyramidFixed is FeaturePyramidChained computed with the
	// bit-accurate shift-and-add fixed-point scaler.
	FeaturePyramidFixed
	// OctavePyramid is the fast feature pyramid of Dollar et al. (TPAMI
	// 2014, the paper's reference [4]): HOG features are extracted once per
	// octave (frame scales 1, 2, 4, ...) and each level in between
	// resamples the nearest octave below it, with the power-law channel
	// correction F_s ~ (s/s')^-Lambda * resample(F_s') of Scale.Lambda.
	// FeaturePyramid is its limiting case of a single octave and Lambda 0.
	OctavePyramid
)

// String implements fmt.Stringer.
func (m PyramidMode) String() string {
	switch m {
	case ImagePyramid:
		return "image-pyramid"
	case FeaturePyramid:
		return "feature-pyramid"
	case FeaturePyramidChained:
		return "feature-pyramid-chained"
	case FeaturePyramidFixed:
		return "feature-pyramid-fixed"
	case OctavePyramid:
		return "octave-pyramid"
	}
	return fmt.Sprintf("PyramidMode(%d)", int(m))
}

// ParsePyramidMode returns the mode of a short name, as the command-line
// tools' -mode flags take it: image, feature, chained, fixed or octave.
func ParsePyramidMode(name string) (PyramidMode, error) {
	for m, short := range [...]string{"image", "feature", "chained", "fixed", "octave"} { // in mode order
		if name == short {
			return PyramidMode(m), nil
		}
	}
	return 0, fmt.Errorf("core: unknown pyramid mode %q (want image, feature, chained, fixed or octave)", name)
}

// Config holds the detector parameters. Use DefaultConfig as a baseline.
type Config struct {
	HOG     hog.Config
	WindowW int // detection window width in pixels (64)
	WindowH int // detection window height in pixels (128)
	// ScaleStep is the pyramid ratio between adjacent scales (1.1).
	ScaleStep float64
	// MaxScales caps the number of pyramid levels; 0 (or less) means as
	// many as fit.
	// The paper's hardware uses 2 (memory-limited, Section 5).
	MaxScales int
	// Mode selects how the pyramid levels are built (see PyramidMode).
	Mode PyramidMode
	// Threshold is the SVM decision threshold: windows scoring above it
	// are detections.
	Threshold float64
	// NMSOverlap is the IoU above which overlapping detections are
	// suppressed; <= 0 disables NMS.
	NMSOverlap float64
	// Interp is the resampling kernel of the frame resizes of the image
	// and octave pyramids.
	Interp imgproc.Interp
	// Scale configures the float feature scaler; its Lambda is also the
	// OctavePyramid channel correction.
	Scale featpyr.ScaleConfig
	// Fixed configures the fixed-point scaler (FeaturePyramidFixed); nil
	// uses featpyr.NewFixedScaler defaults. A scaler builds each phase's
	// shift-add networks once and may be shared between detectors.
	Fixed *featpyr.FixedScaler
	// Cascade selects staged early-rejection window scoring (see
	// CascadeMode). CascadeCalibrated trades a measured miss bound for
	// pruning and needs a calibrated model. Off by default.
	Cascade CascadeMode
	// Workers bounds the goroutines used on the detection hot path: the
	// HOG front end splits its luminance, cell and normalization passes by
	// rows, pyramid levels are resampled and scanned concurrently, each
	// level split by rows. 0 means GOMAXPROCS; 1 runs serially. No output
	// value depends on the split and shard results are merged in raster
	// order, so every worker count produces identical detections. This is
	// the software analogue of the paper's eight parallel MACBAR
	// classifiers scoring window columns side by side.
	Workers int
	// SkipFinest drops the N finest (most expensive) pyramid levels from
	// scanning, keeping at least the coarsest level. The streaming runtime
	// (internal/rt) uses it to shed load under deadline pressure, mirroring
	// the paper's memory-limited 2-scale hardware operating point: the
	// finest levels carry by far the most windows, so dropping them first
	// buys the largest latency reduction at the smallest coverage loss
	// (far-field detection range goes first).
	SkipFinest int
	// Arena, if non-nil, supplies the reused per-frame scratch (HOG front
	// end and pyramid level store) of the detect path; detectors sharing
	// an Arena share its buffers (the
	// streaming runtime hands one arena to every degradation rung). nil
	// gives the detector a private arena in NewDetector.
	Arena *Arena
	// Regions, if non-nil, is the mutable region-of-interest holder for
	// temporal scan scheduling (internal/roi): while the set is active,
	// DetectRaw and ScoreMaps scan only the windows whose center falls in
	// one of its frame-pixel rectangles, mapped per level into
	// window-anchor spans; while inactive, scans are dense. Like Arena it
	// is shared across detectors (every rung of a streaming pipeline reads
	// the same set) and owns the reusable span scratch that keeps the
	// restricted path allocation-free. It serves one in-flight frame at a
	// time — mutate it only between frames. Restriction composes with
	// Workers sharding and the cascade and preserves raster-order
	// determinism.
	Regions *RegionSet
	// Metrics, if non-nil, receives per-stage latency observations from the
	// detect path: HOG cell binning and normalization (via the arena
	// scratch), pyramid construction, window scanning, and NMS, plus
	// per-level resample timings. Recording is lock-free and
	// allocation-free, so the alloc budgets hold with metrics enabled; nil
	// (the default) leaves the hot path with a single predicted-not-taken
	// branch per stage. A DetectRecorder accumulates one frame at a time:
	// detectors running frames concurrently need distinct recorders, which
	// may share one *obs.Metrics registry (its histograms are atomic).
	Metrics *obs.DetectRecorder
	// LevelProbe, if non-nil, is invoked once per scanned pyramid level
	// (with its absolute pyramid index, assigned before any skipping) at
	// the start of every scan. A non-nil return aborts the frame with that
	// error. It exists for instrumentation and fault injection
	// (internal/rt/faultinject models per-level stalls and poison scales
	// through it); levels shed via SkipFinest are not probed, which is what
	// lets the runtime degrade around an injected per-level fault.
	LevelProbe func(ctx context.Context, level int) error
}

// DefaultConfig returns the paper's detector configuration with the
// feature-pyramid mode and unlimited scales.
func DefaultConfig() Config {
	return Config{
		HOG:        hog.DefaultConfig(),
		WindowW:    64,
		WindowH:    128,
		ScaleStep:  1.1,
		Mode:       FeaturePyramid,
		Threshold:  0,
		NMSOverlap: 0.3,
		Interp:     imgproc.Bilinear,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.HOG.Validate(); err != nil {
		return err
	}
	if c.WindowW < c.HOG.CellSize || c.WindowH < c.HOG.CellSize {
		return fmt.Errorf("core: window %dx%d smaller than a cell", c.WindowW, c.WindowH)
	}
	if c.WindowW%c.HOG.CellSize != 0 || c.WindowH%c.HOG.CellSize != 0 {
		return fmt.Errorf("core: window %dx%d not a whole number of %d-px cells",
			c.WindowW, c.WindowH, c.HOG.CellSize)
	}
	if c.ScaleStep <= 1 {
		return fmt.Errorf("core: scale step %g must exceed 1", c.ScaleStep)
	}
	if c.Mode < ImagePyramid || c.Mode > OctavePyramid {
		return fmt.Errorf("core: unknown pyramid mode %v", c.Mode)
	}
	if math.IsNaN(c.Scale.Lambda) || math.IsInf(c.Scale.Lambda, 0) {
		return fmt.Errorf("core: scale lambda %g is not finite", c.Scale.Lambda)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	if c.SkipFinest < 0 {
		return fmt.Errorf("core: negative skip-finest count %d", c.SkipFinest)
	}
	return nil
}

// workers resolves the configured worker count (0 means GOMAXPROCS).
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DescriptorLen returns the feature-vector length a model must have for
// this configuration.
func (c Config) DescriptorLen() int { return c.HOG.DescriptorLen(c.WindowW, c.WindowH) }

// windowBlocks returns the window size in blocks.
func (c Config) windowBlocks() (bx, by int) {
	cx, cy := c.HOG.WindowCells(c.WindowW, c.WindowH)
	return c.HOG.WindowBlocks(cx, cy)
}

// Detector is a trained multi-scale pedestrian detector.
type Detector struct {
	cfg   Config
	model *svm.Model
	arena *Arena
	// plan is the cascade stage schedule (nil when Cascade is off), built
	// once in NewDetector and shared read-only by every scan worker.
	plan *hog.StagePlan
}

// NewDetector validates the configuration against the model dimensions.
func NewDetector(model *svm.Model, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if want := cfg.DescriptorLen(); len(model.W) != want {
		return nil, fmt.Errorf("core: model has %d weights, config needs %d", len(model.W), want)
	}
	arena := cfg.Arena
	if arena == nil {
		arena = NewArena()
	}
	// Route per-level resample timings of the float scalers into the
	// registry's pyramid-level histogram unless the caller installed an
	// explicit timer (the fixed scaler is timed directly in buildLevels).
	if cfg.Scale.LevelTimer == nil {
		cfg.Scale.LevelTimer = cfg.Metrics.LevelTimer()
	}
	plan, err := buildStagePlan(model, cfg)
	if err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, model: model, arena: arena, plan: plan}, nil
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Model returns the detector's SVM model.
func (d *Detector) Model() *svm.Model { return d.model }

// Detect runs multi-scale detection on the frame and returns the surviving
// detections (after thresholding and NMS) in frame pixel coordinates,
// highest score first.
func (d *Detector) Detect(frame *imgproc.Gray) ([]eval.Detection, error) {
	return d.DetectCtx(context.Background(), frame)
}

// DetectCtx is Detect with cooperative cancellation: pyramid construction
// and window scanning observe ctx and return ctx.Err() promptly (within one
// window row / one pyramid level) once it is cancelled or its deadline
// passes. The streaming runtime (internal/rt) uses it to enforce the
// per-frame budget of das.FrameBudget.
func (d *Detector) DetectCtx(ctx context.Context, frame *imgproc.Gray) ([]eval.Detection, error) {
	raw, err := d.DetectRawCtx(ctx, frame)
	if err != nil {
		return nil, err
	}
	if d.cfg.NMSOverlap > 0 {
		t0 := time.Now()
		raw = NMS(raw, d.cfg.NMSOverlap)
		d.cfg.Metrics.Observe(obs.StageNMS, time.Since(t0))
	}
	return raw, nil
}

// DetectRaw runs multi-scale detection without non-maximum suppression.
func (d *Detector) DetectRaw(frame *imgproc.Gray) ([]eval.Detection, error) {
	return d.DetectRawCtx(context.Background(), frame)
}

// DetectRawCtx is DetectRaw with cooperative cancellation (see DetectCtx).
func (d *Detector) DetectRawCtx(ctx context.Context, frame *imgproc.Gray) ([]eval.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.cfg.Metrics.BeginFrame()
	fs, err := d.buildLevels(ctx, frame)
	if err != nil {
		return nil, err
	}
	defer d.arena.put(fs)
	d.applyRegions(fs.levels)
	t0 := time.Now()
	out, err := d.scanLevels(ctx, fs)
	if err != nil {
		return nil, err
	}
	d.cfg.Metrics.Observe(obs.StageScan, time.Since(t0))
	sortByScore(out)
	return out, nil
}

// pyrLevel is one scale of either pyramid flavour. sx and sy map level pixel
// coordinates back to frame pixels; they differ in general because level
// grids are rounded to integers independently per axis. index is the
// absolute pyramid level (0 = finest), stable under SkipFinest so that
// LevelProbe and the degradation ladder agree on which scale is which.
type pyrLevel struct {
	fm     *hog.FeatureMap
	sx, sy float64
	index  int
	// spans restricts the scan to these anchor rectangles (applyRegions):
	// nil scans the whole level dense, a non-nil empty slice skips the
	// level entirely (the active region set touches none of its anchors).
	spans []anchorSpan
}

// skipFinest resolves the effective number of finest levels to shed for a
// pyramid of n levels: the configured count, clamped so that at least the
// coarsest level survives.
func (d *Detector) skipFinest(n int) int { return max(min(d.cfg.SkipFinest, n-1), 0) }

// buildLevels checks a scratch out of the arena and builds the pyramid of
// the configured mode into it: fs.levels are the levels to scan, with
// their per-axis frame-mapping factors. The levels alias the scratch, so
// the caller returns it with d.arena.put once scanning is done; on error it
// is already returned. Both DetectRaw and ScoreMaps go through here, so
// every mode scores the same levels in both entry points. Construction
// observes ctx: it stops within one job of cancellation.
func (d *Detector) buildLevels(ctx context.Context, frame *imgproc.Gray) (*frameScratch, error) {
	fs := d.arena.get()
	if err := d.fillLevels(ctx, frame, fs); err != nil {
		d.arena.put(fs)
		return nil, err
	}
	return fs, nil
}

// fillLevels is buildLevels on a checked-out scratch.
func (d *Detector) fillLevels(ctx context.Context, frame *imgproc.Gray, fs *frameScratch) error {
	// A pixel buffer shorter than its header panics here, on the calling
	// goroutine, in every mode and at every worker count (the streaming
	// runtime reports a PanicError), not in a pool worker, or not at all.
	if len(frame.Pix) < frame.W*frame.H {
		panic(fmt.Sprintf("core: frame %dx%d has %d of its %d pixels", frame.W, frame.H, len(frame.Pix), frame.W*frame.H))
	}
	workers := d.cfg.workers()
	extracted := d.cfg.Mode == ImagePyramid || d.cfg.Mode == OctavePyramid
	skip := 0
	if extracted {
		fs.octPlan = d.planLevels(frame.W, frame.H, fs.octPlan[:0])
		if len(fs.octPlan) == 0 {
			return fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
		}
		skip = d.skipFinest(len(fs.octPlan))
	}
	// The base extraction runs through the arena's scratch: the fused front
	// end writes the luminance plane, cell grid, and base feature map into
	// reusable buffers, and every pyramid scans that base map in place as
	// its level 0. An extracted-level pyramid whose kept levels all read
	// coarser octaves skips it.
	var base *hog.FeatureMap
	if !extracted || fs.octPlan[skip].octave == 0 {
		fs.hog.Metrics = d.cfg.Metrics // cells/normalize stage timings; cleared on put
		var err error
		if base, err = hog.ComputeInto(ctx, frame, d.cfg.HOG, fs.hog, workers); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	wbx, wby := d.cfg.windowBlocks()
	pt0 := time.Now()
	var err error
	switch d.cfg.Mode {
	case ImagePyramid, OctavePyramid:
		err = d.extractLevels(ctx, frame, base, fs, skip, workers)
	case FeaturePyramid:
		err = fs.pyr.Build(ctx, base, d.cfg.ScaleStep, wbx, wby, d.cfg.MaxScales, d.cfg.SkipFinest, d.cfg.Scale, workers)
	case FeaturePyramidChained:
		err = fs.pyr.BuildChained(ctx, base, d.cfg.ScaleStep, wbx, wby, d.cfg.MaxScales, d.cfg.Scale, workers)
	case FeaturePyramidFixed:
		err = fs.pyr.BuildFixed(ctx, base, d.cfg.ScaleStep, wbx, wby, d.cfg.MaxScales, d.cfg.Fixed, d.cfg.Metrics.LevelTimer())
	default:
		return fmt.Errorf("core: unknown pyramid mode %v", d.cfg.Mode)
	}
	if err != nil {
		return err
	}
	if !extracted {
		// The direct build has not resampled the shed levels at all (nor
		// has extractLevels, which sheds its own); the chained and fixed
		// builds resample them to chain through them. Absolute indices are
		// kept so LevelProbe still addresses the original scale ladder.
		skip = d.skipFinest(len(fs.pyr.Levels))
		fs.levels = slices.Grow(fs.levels, len(fs.pyr.Levels)-skip)
		for i, l := range fs.pyr.Levels[skip:] {
			// Effective per-axis scale of this level from the block-grid
			// ratio (grids are rounded per level, like image pyramid
			// sizes, and independently per axis).
			fs.levels = append(fs.levels, pyrLevel{
				fm:    l.Map,
				sx:    float64(base.BlocksX) / float64(l.Map.BlocksX),
				sy:    float64(base.BlocksY) / float64(l.Map.BlocksY),
				index: skip + i,
			})
		}
	}
	d.cfg.Metrics.Observe(obs.StagePyramid, time.Since(pt0))
	return nil
}

// octaveLevel is one planned level of an extracted-level pyramid
// (ImagePyramid, OctavePyramid): the octave it is drawn from (0 is the
// base map; octave o > 0 is the frame resized to w x h, with the exact
// per-axis frame scales sx, sy and block grid bx x by) and the factor rel
// and grid outBX x outBY it is resampled to. Every image-pyramid level is
// an octave of its own, at rel 1.
type octaveLevel struct {
	octave       int
	w, h, bx, by int
	sx, sy       float64
	rel          float64
	outBX, outBY int
}

// planLevels appends the levels of the image or octave pyramid of a
// frameW x frameH frame to plan, without extracting anything: level i
// covers frame scale ScaleStep^i and draws from the nearest octave at or
// below it whose image and block grid still fit the window. Octave o sits
// at frame scale ScaleStep^o in image mode, so every level is its own
// octave and the ladder ends with the last octave that fits, and at 2^o
// in octave mode, whose levels past the last octave resample it until the
// window no longer fits. Block grids follow hog's arithmetic, so the plan
// tells, before any extraction, whether a kept level reads the base map.
func (d *Detector) planLevels(frameW, frameH int, plan []octaveLevel) []octaveLevel {
	wbx, wby := d.cfg.windowBlocks()
	octStep := 2.0
	if d.cfg.Mode == ImagePyramid {
		octStep = d.cfg.ScaleStep
	}
	var oct octaveLevel
	octaves, octScale, lastOctave := 0, 1.0, false
	for i := 0; d.cfg.MaxScales <= 0 || i < d.cfg.MaxScales; i++ {
		scale := math.Pow(d.cfg.ScaleStep, float64(i))
		for !lastOctave {
			next := math.Pow(octStep, float64(octaves))
			if next > scale {
				break
			}
			w := int(math.Round(float64(frameW) / next))
			h := int(math.Round(float64(frameH) / next))
			bx, by := d.cfg.HOG.WindowBlocks(d.cfg.HOG.WindowCells(w, h))
			if w < d.cfg.WindowW || h < d.cfg.WindowH || bx < wbx || by < wby {
				lastOctave = true
				break
			}
			oct = octaveLevel{octave: octaves, w: w, h: h, bx: bx, by: by,
				sx: float64(frameW) / float64(w), sy: float64(frameH) / float64(h)}
			octaves, octScale = octaves+1, next
		}
		if octaves == 0 || (lastOctave && d.cfg.Mode == ImagePyramid) {
			break
		}
		l := oct
		l.rel = scale / octScale
		l.outBX = int(math.Round(float64(oct.bx) / l.rel))
		l.outBY = int(math.Round(float64(oct.by) / l.rel))
		if l.outBX < wbx || l.outBY < wby {
			break
		}
		plan = append(plan, l)
	}
	return plan
}

// extractLevels builds the kept levels fs.octPlan[skip:] of the image or
// octave pyramid into fs.levels. base is the arena's base map, octave 0,
// scanned in place; it is nil when no kept level reads it. The octaves
// >= 1 the kept levels read are extracted together (fs.ext), into maps of
// the level store, which is sized for them and for every resampled level
// before any is built. Each level resamples its octave by the
// remaining factor rel with Config.Scale, its rows on up to workers
// goroutines; a level at rel 1, which every image-pyramid level is, scans
// its octave's map itself.
func (d *Detector) extractLevels(ctx context.Context, frame *imgproc.Gray, base *hog.FeatureMap, fs *frameScratch, skip, workers int) error {
	plan, e := fs.octPlan[skip:], &fs.ext
	blockLen := d.cfg.HOG.BlockLen()
	e.jobs = slices.Grow(e.jobs[:0], len(plan))
	total, cols, resampled := 0, 0, 0
	for i, l := range plan {
		if l.octave > 0 && (i == 0 || plan[i-1].octave != l.octave) {
			e.jobs = append(e.jobs, l)
			total += l.bx * l.by * blockLen
		}
		if l.rel != 1 {
			total += l.outBX * l.outBY * blockLen
			cols += l.outBX
			resampled++
		}
	}
	fs.pyr.Reserve(len(e.jobs)+resampled, total, cols)
	like := hog.FeatureMap{BlockLen: blockLen, Cfg: d.cfg.HOG}
	e.maps = slices.Grow(e.maps[:0], len(e.jobs))
	for _, l := range e.jobs {
		e.maps = append(e.maps, fs.pyr.Map(l.bx, l.by, &like))
	}
	octFM, next := base, 0
	for i, l := range plan {
		if next < len(e.jobs) && e.jobs[next].octave == l.octave {
			// The octaves are extracted once the levels reading the base
			// map are built, while it is still in cache.
			if next == 0 {
				if err := e.run(ctx, d, frame, workers); err != nil {
					return err
				}
			}
			octFM, next = e.maps[next], next+1
		}
		fm := octFM
		if l.rel != 1 {
			var err error
			if fm, err = fs.pyr.Scale(ctx, octFM, l.outBX, l.outBY, l.rel, l.rel, d.cfg.Scale, workers); err != nil {
				return err
			}
		}
		// Per-axis frame scale of the level: the octave's scale times
		// the intra-octave block-grid ratio.
		fs.levels = append(fs.levels, pyrLevel{
			fm:    fm,
			sx:    l.sx * float64(octFM.BlocksX) / float64(fm.BlocksX),
			sy:    l.sy * float64(octFM.BlocksY) / float64(fm.BlocksY),
			index: skip + i,
		})
	}
	return nil
}

// octaveFanOut is the octave extraction of extractLevels, one job per
// octave on up to workers lanes. Each lane's goroutine owns a resize
// buffer and a HOG scratch and pulls jobs from a shared counter, so the
// lanes, grown once, serve every frame without allocating, and octaves of
// different sizes still spread over the workers.
type octaveFanOut struct {
	jobs   []octaveLevel     // the levels that open the octaves to extract
	maps   []*hog.FeatureMap // per job: the level-store map it is copied into
	frames []imgproc.Gray    // per lane
	hogs   []*hog.Scratch    // per lane
	next   atomic.Int64      // the next job to claim
	lane   func(int) error   // runLane, bound once: a per-frame method value would allocate
	// The detector, ctx, frame and per-lane HOG workers of the run in
	// progress.
	d       *Detector
	ctx     context.Context
	frame   *imgproc.Gray
	workers int
}

// run extracts every job, each the frame resized into its lane's buffer,
// then HOG, copied into the job's map. With fewer octaves than workers, as
// in an octave pyramid of one or two octaves, each lane's HOG splits its
// rows over its share of the workers; otherwise it runs on its lane alone.
func (e *octaveFanOut) run(ctx context.Context, d *Detector, frame *imgproc.Gray, workers int) error {
	n := min(workers, len(e.jobs))
	for len(e.hogs) < n {
		e.frames = append(e.frames, imgproc.Gray{})
		e.hogs = append(e.hogs, hog.NewScratch())
	}
	if e.lane == nil {
		e.lane = e.runLane
	}
	e.d, e.ctx, e.frame, e.workers = d, ctx, frame, workers/n
	e.next.Store(0)
	err := par.Do(ctx, n, n, e.lane)
	e.d, e.ctx, e.frame = nil, nil, nil
	return err
}

// runLane extracts jobs on lane g until none is left. Once ctx is done,
// ComputeInto stops before its first pass, so the lane stops within one
// resize.
func (e *octaveFanOut) runLane(g int) error {
	for j := int(e.next.Add(1) - 1); j < len(e.jobs); j = int(e.next.Add(1) - 1) {
		l := &e.jobs[j]
		img := imgproc.ResizeInto(&e.frames[g], e.frame, l.w, l.h, e.d.cfg.Interp)
		fm, err := hog.ComputeInto(e.ctx, img, e.d.cfg.HOG, e.hogs[g], e.workers)
		if err != nil {
			return fmt.Errorf("core: octave %d (%dx%d): %w", l.octave, l.w, l.h, err)
		}
		copy(e.maps[j].Feat, fm.Feat)
	}
	return nil
}

// maxStackRows bounds the window height, in block rows, whose staged-kernel
// row scratch lives on the stack; every shipped geometry fits, and a taller
// window costs one allocation per scanned shard, not per window.
const maxStackRows = 64

// scanBatch is how many window anchors a scan worker collects, across
// spans and window rows, before scoring them in one call: eight full
// groups of the span kernel.
const scanBatch = 64

// spanScratch is one scan worker's state for scanAnchors, on the stack
// with the worker: the anchor batch and its scores, the staged kernel's
// per-row dot scratch, and the cascade counters, folded into the shared
// registry once per shard so the per-window path has no atomic traffic.
type spanScratch struct {
	anchors [scanBatch]hog.Anchor
	scores  [scanBatch]float64
	rowBuf  [maxStackRows]float64
	tall    []float64 // row scratch of windows taller than maxStackRows
	tally   cascadeTally
}

// rowDots returns the staged kernel's row scratch for windows wby block
// rows tall.
func (sc *spanScratch) rowDots(wby int) []float64 {
	if wby <= maxStackRows {
		return sc.rowBuf[:]
	}
	if sc.tall == nil {
		sc.tall = make([]float64, wby)
	}
	return sc.tall
}

// scanAnchors scores every window anchor of window rows [row0, row1) of
// level l and hands each anchor's decision value to emit in raster order.
// An unrestricted level (l.spans nil) is the degenerate single full-width
// span, built on the stack; a restricted one walks its region spans,
// which are non-overlapping and bx0-sorted, so restricted output stays
// the exact raster-order subsequence of a dense scan.
// Anchors collect across spans and window rows into sc's fixed batch, so
// narrow spans and levels still fill the span kernel's eight lanes.
// Cancellation is checked once per window row, so an expired ctx stops a
// scan within one row; the caller discards partial output on error,
// keeping results deterministic.
func (d *Detector) scanAnchors(ctx context.Context, l pyrLevel, row0, row1 int, sc *spanScratch,
	emit func(a hog.Anchor, score float64)) error {
	wbx, wby := d.cfg.windowBlocks()
	fullSpan := [1]anchorSpan{{bx0: 0, bx1: l.fm.BlocksX - wbx + 1, by0: 0, by1: l.fm.BlocksY - wby + 1}}
	spans := l.spans
	if spans == nil {
		spans = fullSpan[:]
	}
	n := 0
	flush := func() {
		if d.scoreAnchors(l.fm, sc.anchors[:n], sc.scores[:n], sc) {
			for i, a := range sc.anchors[:n] {
				emit(a, sc.scores[i])
			}
		}
		n = 0
	}
	for by := row0; by < row1; by++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, sp := range spans {
			if by < sp.by0 || by >= sp.by1 {
				continue
			}
			for bx := sp.bx0; bx < sp.bx1; bx++ {
				sc.anchors[n] = hog.Anchor{X: bx, Y: by}
				if n++; n == scanBatch {
					flush()
				}
			}
		}
	}
	if n > 0 {
		flush()
	}
	return nil
}

// scoreAnchors writes the decision values (score + B) of the windows at
// anchors into dst. It is the one window scorer behind DetectRaw and
// ScoreMaps. Without a cascade plan hog.FeatureMap.ScoreAnchors scores
// the batch, eight windows sharing each weight load. With one, each window
// runs the staged kernel: a window it prunes reads -Inf, an accepted one
// its exact dense score, and sc.tally counts both. It reports false if a
// window overhangs the map.
func (d *Detector) scoreAnchors(fm *hog.FeatureMap, anchors []hog.Anchor, dst []float64, sc *spanScratch) bool {
	wbx, wby := d.cfg.windowBlocks()
	w, b := d.model.W, d.model.B
	if d.plan == nil {
		if !fm.ScoreAnchors(w, wbx, wby, anchors, dst) {
			return false
		}
		for i := range dst {
			dst[i] += b
		}
		return true
	}
	for i, a := range anchors {
		score, rowsEval, accepted, ok := fm.ScoreWindowStaged(w, a.X, a.Y, wbx, wby, d.plan, sc.rowDots(wby))
		if !ok {
			return false
		}
		sc.tally.windows++
		sc.tally.rows += uint64(rowsEval)
		if !accepted {
			sc.tally.reject(rowsEval)
			dst[i] = math.Inf(-1)
			continue
		}
		sc.tally.accepted++
		dst[i] = score + b
	}
	return true
}

// scanLevelRows slides the detection window over block rows [row0, row1) of
// one pyramid level, appending the windows scoring above the threshold to
// out. Windows are scored zero-copy against the feature map in batches of
// a stack buffer, so no batch allocates. l.sx and l.sy map level pixel
// coordinates back to frame pixels per axis.
func (d *Detector) scanLevelRows(ctx context.Context, l pyrLevel, row0, row1 int, out []eval.Detection) ([]eval.Detection, error) {
	cell := d.cfg.HOG.CellSize
	var sc spanScratch
	err := d.scanAnchors(ctx, l, row0, row1, &sc, func(a hog.Anchor, score float64) {
		if score <= d.cfg.Threshold {
			return
		}
		// Window anchor in level pixels, then back to frame pixels.
		box := geom.XYWH(a.X*cell, a.Y*cell, d.cfg.WindowW, d.cfg.WindowH).ScaleXY(l.sx, l.sy)
		out = append(out, eval.Detection{Box: box, Score: score})
	})
	wbx, _ := d.cfg.windowBlocks()
	sc.tally.fold(d.cfg.Metrics.Metrics(), wbx)
	return out, err
}

// rowShard is one unit of scan work: a contiguous run of window rows of one
// level.
type rowShard struct {
	level      int
	row0, row1 int
}

// shardLevels splits the window rows of fs.levels into up to `workers`
// contiguous shards per level, in (level, row) order, into fs.rows and
// fs.shards. Levels with fewer rows than workers yield fewer shards; a
// level the window does not fit yields none.
func (d *Detector) shardLevels(fs *frameScratch, workers int) {
	wbx, wby := d.cfg.windowBlocks()
	fs.rows = slices.Grow(fs.rows[:0], len(fs.levels))
	fs.shards = slices.Grow(fs.shards[:0], len(fs.levels)*workers)
	for level, l := range fs.levels {
		n := 0
		if l.fm.BlocksX >= wbx && l.fm.BlocksY >= wby {
			n = l.fm.BlocksY - wby + 1
		}
		fs.rows = append(fs.rows, n)
		if n < 1 {
			continue
		}
		step := (n + workers - 1) / workers
		for r := 0; r < n; r += step {
			fs.shards = append(fs.shards, rowShard{level: level, row0: r, row1: min(r+step, n)})
		}
	}
}

// probeLevels runs the configured LevelProbe over the levels about to be
// scanned, in finest-to-coarsest order. A probe error aborts the frame.
func (d *Detector) probeLevels(ctx context.Context, levels []pyrLevel) error {
	probe := d.cfg.LevelProbe
	if probe == nil {
		return nil
	}
	for _, l := range levels {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := probe(ctx, l.index); err != nil {
			return fmt.Errorf("core: level %d probe: %w", l.index, err)
		}
	}
	return nil
}

// scanLevels scores every window of every level in fs, sharding levels
// across window rows over the worker pool. Shard outputs are concatenated
// in (level, row) order, so the result is exactly the raster-order slice a
// serial scan produces — detections are byte-identical for every worker
// count. On cancellation or a worker failure partial output is discarded
// and the error returned.
func (d *Detector) scanLevels(ctx context.Context, fs *frameScratch) ([]eval.Detection, error) {
	levels := fs.levels
	if err := d.probeLevels(ctx, levels); err != nil {
		return nil, err
	}
	workers := d.cfg.workers()
	d.shardLevels(fs, workers)
	shards := fs.shards
	if n := len(shards) - len(fs.outs); n > 0 {
		fs.outs = append(fs.outs, make([][]eval.Detection, n)...)
	}
	outs := fs.outs[:len(shards)]
	err := par.Do(ctx, len(shards), workers, func(i int) error {
		s := shards[i]
		var err error
		outs[i], err = d.scanLevelRows(ctx, levels[s.level], s.row0, s.row1, outs[i][:0])
		return err
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, o := range outs {
		n += len(o)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]eval.Detection, 0, n)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil
}
