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
	// scale and HOG features are recomputed at every level.
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

// Config holds the detector parameters. Use DefaultConfig as a baseline.
type Config struct {
	HOG     hog.Config
	WindowW int // detection window width in pixels (64)
	WindowH int // detection window height in pixels (128)
	// ScaleStep is the pyramid ratio between adjacent scales (1.1).
	ScaleStep float64
	// MaxScales caps the number of pyramid levels; 0 means as many as fit.
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
	// Interp is the resampling kernel for the image pyramid.
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

// maxLevels returns the level cap handed to the pyramid builders.
func (d *Detector) maxLevels() int {
	if d.cfg.MaxScales > 0 {
		return d.cfg.MaxScales
	}
	return 0 // unlimited, bounded by window fit
}

// levelSize is one planned image-pyramid level: its absolute index and the
// rounded pixel dimensions (the same rounding as imgproc.Pyramid).
type levelSize struct {
	index int
	w, h  int
}

// pyramidSizes enumerates the image-pyramid level geometries for the frame:
// level i is the frame divided by ScaleStep^i, stopping when the detection
// window no longer fits or after maxLevels levels.
func (d *Detector) pyramidSizes(frameW, frameH int) []levelSize {
	maxL := d.maxLevels()
	if maxL <= 0 {
		maxL = math.MaxInt32
	}
	var out []levelSize
	for i := 0; i < maxL; i++ {
		f := math.Pow(d.cfg.ScaleStep, float64(i))
		w := int(math.Round(float64(frameW) / f))
		h := int(math.Round(float64(frameH) / f))
		if w < d.cfg.WindowW || h < d.cfg.WindowH {
			break
		}
		out = append(out, levelSize{index: i, w: w, h: h})
	}
	return out
}

// skipFinest resolves the effective number of finest levels to shed for a
// pyramid of n levels: the configured count, clamped so that at least the
// coarsest level survives.
func (d *Detector) skipFinest(n int) int {
	skip := d.cfg.SkipFinest
	if skip >= n {
		skip = n - 1
	}
	if skip < 0 {
		skip = 0
	}
	return skip
}

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
	workers := d.cfg.workers()
	if d.cfg.Mode == ImagePyramid {
		return d.imageLevels(ctx, frame, fs, workers)
	}
	// The base extraction runs through the arena's scratch: the fused front
	// end writes the luminance plane, cell grid, and base feature map into
	// reusable buffers, and every feature pyramid scans that base map in
	// place as its level 0.
	fs.hog.Metrics = d.cfg.Metrics // cells/normalize stage timings; cleared on put
	base, err := hog.ComputeInto(ctx, frame, d.cfg.HOG, fs.hog, workers)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	wbx, wby := d.cfg.windowBlocks()
	pt0 := time.Now()
	switch d.cfg.Mode {
	case OctavePyramid:
		err = d.octaveLevels(ctx, frame, base, fs, workers)
	case FeaturePyramid:
		err = fs.pyr.Build(ctx, base, d.cfg.ScaleStep, wbx, wby, d.maxLevels(), d.cfg.SkipFinest, d.cfg.Scale, workers)
	case FeaturePyramidChained:
		err = fs.pyr.BuildChained(ctx, base, d.cfg.ScaleStep, wbx, wby, d.maxLevels(), d.cfg.Scale, workers)
	case FeaturePyramidFixed:
		err = d.fixedLevels(ctx, frame, base, fs)
	default:
		return fmt.Errorf("core: unknown pyramid mode %v", d.cfg.Mode)
	}
	if err != nil {
		return err
	}
	if d.cfg.Mode != OctavePyramid {
		// The direct build has not resampled the shed levels at all (nor
		// has octaveLevels, which sheds its own); the chained and fixed
		// builds resample them to chain through them. Absolute indices are
		// kept so LevelProbe still addresses the original scale ladder.
		skip := d.skipFinest(len(fs.pyr.Levels))
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

// imageLevels builds the ImagePyramid levels into fs: every level resizes
// the frame and extracts HOG afresh, one level per job on up to workers
// goroutines. Levels are shed before any work is done, so both the resize
// and the extraction of a skipped level are saved.
//
// The whole per-level resize+extract fan-out books under StagePyramid: the
// parallel jobs compute HOG through pooled scratches that cannot share the
// frame's single-threaded stage recorder, so image-pyramid mode does not
// split out hog_cells / hog_norm the way the feature modes do.
func (d *Detector) imageLevels(ctx context.Context, frame *imgproc.Gray, fs *frameScratch, workers int) error {
	sizes := d.pyramidSizes(frame.W, frame.H)
	if len(sizes) == 0 {
		return fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
	}
	sizes = sizes[d.skipFinest(len(sizes)):]
	t0 := time.Now()
	fs.levels = append(fs.levels[:0], make([]pyrLevel, len(sizes))...)
	levels := fs.levels
	err := par.Do(ctx, len(sizes), workers, func(i int) error {
		s := sizes[i]
		img := imgproc.Resize(frame, s.w, s.h, d.cfg.Interp)
		fm, err := hog.Compute(img, d.cfg.HOG)
		if err != nil {
			return fmt.Errorf("core: level %d: %w", s.index, err)
		}
		// The exact per-axis scale of this level (sizes are rounded per
		// level, separately in X and Y).
		levels[i] = pyrLevel{
			fm:    fm,
			sx:    float64(frame.W) / float64(img.W),
			sy:    float64(frame.H) / float64(img.H),
			index: s.index,
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.cfg.Metrics.Observe(obs.StagePyramid, time.Since(t0))
	return nil
}

// defaultFixed is the scaler of every configuration with a nil Fixed, shared
// so that its phase networks are built once per process, not per frame.
var defaultFixed = featpyr.NewFixedScaler()

// fixedLevels builds the FeaturePyramidFixed levels into fs.pyr: the
// chained pyramid of the bit-accurate shift-and-add scaler, each level
// written into the pyramid's reusable store, level 0 the base map itself.
func (d *Detector) fixedLevels(ctx context.Context, frame *imgproc.Gray, base *hog.FeatureMap, fs *frameScratch) error {
	wbx, wby := d.cfg.windowBlocks()
	if base.BlocksX < wbx || base.BlocksY < wby {
		return fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
	}
	scaler := d.cfg.Fixed
	if scaler == nil {
		scaler = defaultFixed
	}
	p := &fs.pyr
	p.Reset()
	p.Levels = append(p.Levels, featpyr.Level{Scale: 1, Map: base})
	prev := base
	for i := 1; d.cfg.MaxScales == 0 || i < d.cfg.MaxScales; i++ {
		// Termination is decided on the target grid before scaling (same
		// rounding as ScaleMapBy): a level too small for the window ends
		// the pyramid, while a scaler failure on a viable level is a real
		// error and is returned, not swallowed as silent truncation.
		outBX := int(math.Round(float64(prev.BlocksX) / d.cfg.ScaleStep))
		outBY := int(math.Round(float64(prev.BlocksY) / d.cfg.ScaleStep))
		if outBX < wbx || outBY < wby {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		lt0 := time.Now()
		m := p.Map(outBX, outBY, prev)
		if _, err := scaler.ScaleInto(m, prev, float64(prev.BlocksX)/float64(outBX), float64(prev.BlocksY)/float64(outBY)); err != nil {
			return fmt.Errorf("core: fixed scaler level %d: %w", i, err)
		}
		d.cfg.Metrics.ObserveLevel(time.Since(lt0))
		p.Levels = append(p.Levels, featpyr.Level{Scale: p.Levels[i-1].Scale * d.cfg.ScaleStep, Map: m})
		prev = m
	}
	return nil
}

// octaveLevel is one planned OctavePyramid level: the octave it is drawn
// from (0 is the base map; octave o > 0 is the frame resized by 2^o to
// w x h, with the exact per-axis frame scales sx, sy and block grid
// bx x by) and the factor rel and grid outBX x outBY it is resampled to.
type octaveLevel struct {
	octave       int
	w, h, bx, by int
	sx, sy       float64
	rel          float64
	outBX, outBY int
}

// planOctaves appends the OctavePyramid's levels to plan, without
// extracting any octave: level i covers frame scale ScaleStep^i and draws
// from the nearest octave at or below it whose image and block grid still
// fit the window.
func (d *Detector) planOctaves(frame *imgproc.Gray, base *hog.FeatureMap, plan []octaveLevel) []octaveLevel {
	wbx, wby := d.cfg.windowBlocks()
	oct := octaveLevel{w: frame.W, h: frame.H, bx: base.BlocksX, by: base.BlocksY, sx: 1, sy: 1}
	octScale := 1.0
	lastOctave := false
	for i := 0; d.cfg.MaxScales == 0 || i < d.cfg.MaxScales; i++ {
		scale := math.Pow(d.cfg.ScaleStep, float64(i))
		for !lastOctave && 2*octScale <= scale {
			next := 2 * octScale
			w := int(math.Round(float64(frame.W) / next))
			h := int(math.Round(float64(frame.H) / next))
			bx, by := d.cfg.HOG.WindowBlocks(d.cfg.HOG.WindowCells(w, h))
			if w < d.cfg.WindowW || h < d.cfg.WindowH || bx < wbx || by < wby {
				lastOctave = true
				break
			}
			octScale = next
			oct = octaveLevel{octave: oct.octave + 1, w: w, h: h, bx: bx, by: by,
				sx: float64(frame.W) / float64(w), sy: float64(frame.H) / float64(h)}
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

// octaveLevels builds the OctavePyramid levels into fs.levels on the base
// map the arena scratch extracted from the frame, which serves as octave 1
// and is scanned in place. The levels are planned first (planOctaves), so
// the levels SkipFinest sheds are never built and the scratch's level store
// is sized for the rest before any is. Octaves 2, 4, ... are extracted from
// resized frames as the kept levels reach them, all through one reused
// frame buffer and HOG scratch of the arena's. Each level resamples its
// octave by the remaining factor with Config.Scale into the level store,
// its rows on up to workers goroutines (the identity factor scans the base
// map itself, or a copy of a coarser octave's: the next octave reuses the
// HOG scratch).
func (d *Detector) octaveLevels(ctx context.Context, frame *imgproc.Gray, base *hog.FeatureMap, fs *frameScratch, workers int) error {
	wbx, wby := d.cfg.windowBlocks()
	if frame.W < d.cfg.WindowW || frame.H < d.cfg.WindowH || base.BlocksX < wbx || base.BlocksY < wby {
		return fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
	}
	fs.octPlan = d.planOctaves(frame, base, fs.octPlan[:0])
	skip := d.skipFinest(len(fs.octPlan))
	total, cols := 0, 0
	for _, l := range fs.octPlan[skip:] {
		if l.rel != 1 || l.octave > 0 {
			total += l.outBX * l.outBY * base.BlockLen
		}
		if l.rel != 1 {
			cols += l.outBX
		}
	}
	fs.pyr.Reserve(total, cols)
	octFM, extracted := base, 0
	for i := skip; i < len(fs.octPlan); i++ {
		l := fs.octPlan[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		if l.octave != extracted {
			if fs.oct == nil {
				fs.oct = hog.NewScratch()
			}
			img := imgproc.ResizeInto(&fs.octFrame, frame, l.w, l.h, d.cfg.Interp)
			var err error
			if octFM, err = hog.ComputeInto(ctx, img, d.cfg.HOG, fs.oct, workers); err != nil {
				return fmt.Errorf("core: octave %dx: %w", 1<<l.octave, err)
			}
			extracted = l.octave
		}
		fm := octFM
		switch {
		case l.rel != 1:
			var err error
			if fm, err = fs.pyr.Scale(ctx, octFM, l.outBX, l.outBY, l.rel, l.rel, d.cfg.Scale, workers); err != nil {
				return err
			}
		case l.octave > 0:
			fm = fs.pyr.Map(octFM.BlocksX, octFM.BlocksY, octFM)
			copy(fm.Feat, octFM.Feat)
		}
		// Per-axis frame scale of the level: the octave's scale times
		// the intra-octave block-grid ratio.
		fs.levels = append(fs.levels, pyrLevel{
			fm:    fm,
			sx:    l.sx * float64(octFM.BlocksX) / float64(fm.BlocksX),
			sy:    l.sy * float64(octFM.BlocksY) / float64(fm.BlocksY),
			index: i,
		})
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
