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
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/featpyr"
	"repro/internal/geom"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
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
	// uses featpyr.NewFixedScaler defaults.
	Fixed *featpyr.FixedScaler
	// Cascade selects staged early-rejection window scoring (see
	// CascadeMode). CascadeCalibrated trades a measured miss bound for
	// pruning and needs a calibrated model. Off by default.
	Cascade CascadeMode
	// Workers bounds the goroutines used on the detection hot path: pyramid
	// levels are built and scanned concurrently, each level sharded across
	// window rows. 0 means GOMAXPROCS; 1 scans serially. Window scores do
	// not depend on sharding and shard results are merged in raster order,
	// so every worker count produces identical detections. This is the
	// software analogue of the paper's eight parallel MACBAR classifiers
	// scoring window columns side by side.
	Workers int
	// SkipFinest drops the N finest (most expensive) pyramid levels from
	// scanning, keeping at least the coarsest level. The streaming runtime
	// (internal/rt) uses it to shed load under deadline pressure, mirroring
	// the paper's memory-limited 2-scale hardware operating point: the
	// finest levels carry by far the most windows, so dropping them first
	// buys the largest latency reduction at the smallest coverage loss
	// (far-field detection range goes first).
	SkipFinest int
	// Arena, if non-nil, supplies the pooled per-frame HOG scratch for the
	// detect path; detectors sharing an Arena share its buffers (the
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
	levels, release, err := d.buildLevels(ctx, frame)
	if err != nil {
		return nil, err
	}
	defer release()
	d.applyRegions(levels)
	t0 := time.Now()
	out, err := d.scanLevels(ctx, levels)
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

// buildLevels constructs the pyramid of the configured mode and returns its
// levels with their per-axis frame-mapping factors, plus a release function
// that recycles pooled feature storage once scanning is done. Both DetectRaw
// and ScoreMaps go through here, so every mode scores the same levels in
// both entry points. Construction observes ctx: extraction stops within one
// pyramid level of cancellation.
func (d *Detector) buildLevels(ctx context.Context, frame *imgproc.Gray) ([]pyrLevel, func(), error) {
	noop := func() {}
	wbx, wby := d.cfg.windowBlocks()
	switch d.cfg.Mode {
	case ImagePyramid:
		sizes := d.pyramidSizes(frame.W, frame.H)
		if len(sizes) == 0 {
			return nil, noop, fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
		}
		// Shed levels before doing any work: in image-pyramid mode both the
		// resize and the HOG extraction of a skipped level are saved.
		sizes = sizes[d.skipFinest(len(sizes)):]
		// Resize + HOG extraction dominates image-pyramid cost; run the
		// levels through a bounded worker pool. Each worker recovers its own
		// panics so a poison frame (e.g. a truncated pixel buffer) surfaces
		// as an error from DetectRawCtx instead of killing the process.
		//
		// The whole per-level resize+extract fan-out books under
		// StagePyramid: the parallel workers compute HOG through pooled
		// scratches that cannot share the frame's single-threaded stage
		// recorder, so image-pyramid mode does not split out hog_cells /
		// hog_norm the way the feature modes do.
		t0 := time.Now()
		levels := make([]pyrLevel, len(sizes))
		errs := make([]error, len(sizes))
		sem := make(chan struct{}, d.cfg.workers())
		var wg sync.WaitGroup
		for i, s := range sizes {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, s levelSize) {
				defer wg.Done()
				defer func() { <-sem }()
				defer func() {
					if r := recover(); r != nil {
						errs[i] = fmt.Errorf("core: level %d: panic during extraction: %v", s.index, r)
					}
				}()
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				img := imgproc.Resize(frame, s.w, s.h, d.cfg.Interp)
				fm, err := hog.Compute(img, d.cfg.HOG)
				if err != nil {
					errs[i] = fmt.Errorf("core: level %d: %w", s.index, err)
					return
				}
				// The exact per-axis scale of this level (sizes are
				// rounded per level, separately in X and Y).
				levels[i] = pyrLevel{
					fm:    fm,
					sx:    float64(frame.W) / float64(img.W),
					sy:    float64(frame.H) / float64(img.H),
					index: s.index,
				}
			}(i, s)
		}
		wg.Wait()
		if err := firstError(errs); err != nil {
			return nil, noop, err
		}
		d.cfg.Metrics.Observe(obs.StagePyramid, time.Since(t0))
		return levels, noop, nil

	case FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed, OctavePyramid:
		// The base extraction runs through the arena's pooled scratch: the
		// fused front end writes the luminance plane, cell grid, and base
		// feature map into reusable buffers instead of allocating them per
		// frame. The scratch-owned base map must never reach
		// featpyr.ReleaseMap (its slab belongs to the arena, not the level
		// pool); the float pyramids clone it into pooled level 0, so their
		// scratch checks back in right after construction, while the fixed
		// and octave pyramids scan it directly as level 0 and hold the
		// scratch until release.
		s := d.arena.get()
		s.Metrics = d.cfg.Metrics // cells/normalize stage timings; cleared on put
		base, err := hog.ComputeInto(frame, d.cfg.HOG, s, d.cfg.workers())
		if err != nil {
			d.arena.put(s)
			return nil, noop, err
		}
		if err := ctx.Err(); err != nil {
			d.arena.put(s)
			return nil, noop, err
		}
		// The arena may hand the scratch to another frame once it is
		// checked in; snapshot the base grid size for the scale ratios
		// below instead of re-reading the (then recycled) map.
		baseBX, baseBY := base.BlocksX, base.BlocksY
		pt0 := time.Now()
		var levels []featpyr.Level
		release := noop
		switch d.cfg.Mode {
		case OctavePyramid:
			out, release, err := d.octaveLevels(ctx, frame, base, s)
			if err != nil {
				return nil, noop, err
			}
			d.cfg.Metrics.Observe(obs.StagePyramid, time.Since(pt0))
			// As below, shedding skips only the scan; release recycles
			// the shed levels' maps with the rest.
			return out[d.skipFinest(len(out)):], release, nil
		case FeaturePyramid:
			p, err := featpyr.BuildCtx(ctx, base, d.cfg.ScaleStep, wbx, wby, d.maxLevels(), d.cfg.Scale)
			d.arena.put(s)
			if err != nil {
				return nil, noop, err
			}
			levels, release = p.Levels, p.Release
		case FeaturePyramidChained:
			p, err := featpyr.BuildChainedCtx(ctx, base, d.cfg.ScaleStep, wbx, wby, d.maxLevels(), d.cfg.Scale)
			d.arena.put(s)
			if err != nil {
				return nil, noop, err
			}
			levels, release = p.Levels, p.Release
		case FeaturePyramidFixed:
			if base.BlocksX < wbx || base.BlocksY < wby {
				d.arena.put(s)
				return nil, noop, fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
			}
			scaler := d.cfg.Fixed
			if scaler == nil {
				scaler = featpyr.NewFixedScaler()
			}
			levels = []featpyr.Level{{Scale: 1, Map: base}}
			prev := base
			for i := 1; d.cfg.MaxScales == 0 || i < d.cfg.MaxScales; i++ {
				// Termination is decided on the target grid before scaling
				// (same rounding as ScaleMapBy): a level too small for the
				// window ends the pyramid, while a scaler failure on a
				// viable level is a real error and is returned, not
				// swallowed as silent truncation.
				outBX := int(math.Round(float64(prev.BlocksX) / d.cfg.ScaleStep))
				outBY := int(math.Round(float64(prev.BlocksY) / d.cfg.ScaleStep))
				if outBX < wbx || outBY < wby {
					break
				}
				if err := ctx.Err(); err != nil {
					for j := 1; j < len(levels); j++ {
						featpyr.ReleaseMap(levels[j].Map)
					}
					d.arena.put(s)
					return nil, noop, err
				}
				lt0 := time.Now()
				m, _, err := scaler.ScaleMap(prev, outBX, outBY)
				if err != nil {
					for j := 1; j < len(levels); j++ {
						featpyr.ReleaseMap(levels[j].Map)
					}
					d.arena.put(s)
					return nil, noop, fmt.Errorf("core: fixed scaler level %d: %w", i, err)
				}
				d.cfg.Metrics.ObserveLevel(time.Since(lt0))
				levels = append(levels, featpyr.Level{
					Scale: levels[i-1].Scale * d.cfg.ScaleStep,
					Map:   m,
				})
				prev = m
			}
			lv := levels
			release = func() {
				// Level 0 is the scratch-owned base: it returns to the
				// arena, not the featpyr pool.
				for i := 1; i < len(lv); i++ {
					featpyr.ReleaseMap(lv[i].Map)
				}
				d.arena.put(s)
			}
		}
		d.cfg.Metrics.Observe(obs.StagePyramid, time.Since(pt0))
		// Feature pyramids derive every coarser level from the base map, so
		// shedding only skips the scan (which dominates); skipped level maps
		// go straight back to the scratch pool — except a scratch-owned base,
		// whose storage the release function returns to the arena instead.
		// Absolute indices are kept so LevelProbe still addresses the
		// original scale ladder.
		skip := d.skipFinest(len(levels))
		out := make([]pyrLevel, 0, len(levels)-skip)
		for i, l := range levels {
			if i < skip {
				if l.Map != base {
					featpyr.ReleaseMap(l.Map)
				}
				continue
			}
			// Effective per-axis scale of this level from the block-grid
			// ratio (grids are rounded per level, like image pyramid
			// sizes, and independently per axis).
			out = append(out, pyrLevel{
				fm:    l.Map,
				sx:    float64(baseBX) / float64(l.Map.BlocksX),
				sy:    float64(baseBY) / float64(l.Map.BlocksY),
				index: i,
			})
		}
		return out, release, nil
	}
	return nil, noop, fmt.Errorf("core: unknown pyramid mode %v", d.cfg.Mode)
}

// octaveLevels builds the OctavePyramid levels on the base map the arena
// scratch s extracted from the frame, which serves as octave 1 and is
// scanned in place. Octaves 2, 4, ... are extracted from resized frames
// while the window still fits them, each once the level scales reach it.
// Level i covers frame scale ScaleStep^i: the nearest octave at or below
// that scale is resampled by the remaining factor with Config.Scale (the
// identity factor scans the octave map itself). The returned release
// recycles the resampled maps into the featpyr pool and s into the arena;
// on error both are already recycled.
func (d *Detector) octaveLevels(ctx context.Context, frame *imgproc.Gray, base *hog.FeatureMap, s *hog.Scratch) ([]pyrLevel, func(), error) {
	wbx, wby := d.cfg.windowBlocks()
	var resampled []*hog.FeatureMap
	release := func() {
		for _, fm := range resampled {
			featpyr.ReleaseMap(fm)
		}
		d.arena.put(s)
	}
	fail := func(err error) ([]pyrLevel, func(), error) {
		release()
		return nil, nil, err
	}
	if frame.W < d.cfg.WindowW || frame.H < d.cfg.WindowH || base.BlocksX < wbx || base.BlocksY < wby {
		return fail(fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H))
	}
	// oct is the nearest octave at or below the current level's scale. sx
	// and sy are the exact per-axis frame scales of its image (octave
	// sizes are rounded independently per axis).
	type octave struct {
		scale, sx, sy float64
		fm            *hog.FeatureMap
	}
	oct := octave{scale: 1, sx: 1, sy: 1, fm: base}
	lastOctave := false
	var levels []pyrLevel
	for i := 0; d.cfg.MaxScales == 0 || i < d.cfg.MaxScales; i++ {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		scale := math.Pow(d.cfg.ScaleStep, float64(i))
		for !lastOctave && 2*oct.scale <= scale {
			next := 2 * oct.scale
			w := int(math.Round(float64(frame.W) / next))
			h := int(math.Round(float64(frame.H) / next))
			if w < d.cfg.WindowW || h < d.cfg.WindowH {
				lastOctave = true
				break
			}
			fm, err := hog.Compute(imgproc.Resize(frame, w, h, d.cfg.Interp), d.cfg.HOG)
			if err != nil {
				return fail(fmt.Errorf("core: octave %.0fx: %w", next, err))
			}
			if fm.BlocksX < wbx || fm.BlocksY < wby {
				lastOctave = true
				break
			}
			oct = octave{next, float64(frame.W) / float64(w), float64(frame.H) / float64(h), fm}
		}
		rel := scale / oct.scale
		outBX := int(math.Round(float64(oct.fm.BlocksX) / rel))
		outBY := int(math.Round(float64(oct.fm.BlocksY) / rel))
		if outBX < wbx || outBY < wby {
			break
		}
		fm := oct.fm
		if rel != 1 {
			var err error
			if fm, err = featpyr.ScaleMapRatio(oct.fm, outBX, outBY, rel, rel, d.cfg.Scale); err != nil {
				return fail(err)
			}
			resampled = append(resampled, fm)
		}
		// Per-axis frame scale of the level: the octave's scale times
		// the intra-octave block-grid ratio.
		levels = append(levels, pyrLevel{
			fm:    fm,
			sx:    oct.sx * float64(oct.fm.BlocksX) / float64(fm.BlocksX),
			sy:    oct.sy * float64(oct.fm.BlocksY) / float64(fm.BlocksY),
			index: i,
		})
	}
	return levels, release, nil
}

// firstError returns the most informative error of a per-level slice: the
// first non-cancellation error if any (a real failure should not be masked
// by the cancellations it triggered in sibling workers), else the first
// error.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if err != context.Canceled && err != context.DeadlineExceeded {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// maxStackRows bounds the window height, in block rows, whose staged-kernel
// row scratch lives on the stack; every shipped geometry fits, and a taller
// window costs one allocation per scanned shard, not per window.
const maxStackRows = 64

// spanScratch is one scan worker's state for scoreSpan: the staged
// kernel's per-row dot scratch, on the stack with the worker, and the
// cascade counters, folded into the shared registry once per shard so the
// per-window path has no atomic traffic.
type spanScratch struct {
	rowBuf [maxStackRows]float64
	tall   []float64 // row scratch of windows taller than maxStackRows
	tally  cascadeTally
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

// forSpanRows walks the window rows [row0, row1) of level l in raster
// order and calls fn once per anchor span crossing each row, with the
// row's anchor columns [bx0, bx1). An unrestricted level (l.spans nil) is
// the degenerate single full-width span, built on the stack; a restricted
// one walks its region spans, which are non-overlapping and bx0-sorted, so
// restricted output stays the exact raster-order subsequence of a dense
// scan. Cancellation is checked once per window row, so an expired ctx
// stops a scan within one row; the caller discards partial output on
// error, keeping results deterministic.
func (d *Detector) forSpanRows(ctx context.Context, l pyrLevel, row0, row1 int, fn func(by, bx0, bx1 int)) error {
	wbx, wby := d.cfg.windowBlocks()
	fullSpan := [1]anchorSpan{{bx0: 0, bx1: l.fm.BlocksX - wbx + 1, by0: 0, by1: l.fm.BlocksY - wby + 1}}
	spans := l.spans
	if spans == nil {
		spans = fullSpan[:]
	}
	for by := row0; by < row1; by++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, sp := range spans {
			if by >= sp.by0 && by < sp.by1 {
				fn(by, sp.bx0, sp.bx1)
			}
		}
	}
	return nil
}

// scoreSpan writes the decision values (score + B) of the len(dst)
// adjacent windows anchored at block columns bx0, bx0+1, ... of block row
// by into dst. It is the one window scorer behind DetectRaw and ScoreMaps.
// Without a cascade plan hog.FeatureMap.ScoreSpan scores the run, adjacent
// windows sharing weight loads. With one, each window runs the staged
// kernel: a window it prunes reads -Inf, an accepted one its exact dense
// score, and sc.tally counts both. It reports false if a window overhangs
// the map.
func (d *Detector) scoreSpan(fm *hog.FeatureMap, bx0, by int, dst []float64, sc *spanScratch) bool {
	wbx, wby := d.cfg.windowBlocks()
	w, b := d.model.W, d.model.B
	if d.plan == nil {
		if !fm.ScoreSpan(w, bx0, by, wbx, wby, dst) {
			return false
		}
		for i := range dst {
			dst[i] += b
		}
		return true
	}
	for i := range dst {
		score, rowsEval, accepted, ok := fm.ScoreWindowStaged(w, bx0+i, by, wbx, wby, d.plan, sc.rowDots(wby))
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
// out. Windows are scored zero-copy against the feature map in chunks of a
// stack buffer, so no chunk allocates. l.sx and l.sy map level pixel
// coordinates back to frame pixels per axis.
func (d *Detector) scanLevelRows(ctx context.Context, l pyrLevel, row0, row1 int, out []eval.Detection) ([]eval.Detection, error) {
	cell := d.cfg.HOG.CellSize
	var scoreBuf [64]float64
	var sc spanScratch
	err := d.forSpanRows(ctx, l, row0, row1, func(by, bx0, bx1 int) {
		for ; bx0 < bx1; bx0 += len(scoreBuf) {
			scores := scoreBuf[:min(len(scoreBuf), bx1-bx0)]
			if !d.scoreSpan(l.fm, bx0, by, scores, &sc) {
				continue
			}
			for i, score := range scores {
				if score <= d.cfg.Threshold {
					continue
				}
				// Window anchor in level pixels, then back to frame pixels.
				box := geom.XYWH((bx0+i)*cell, by*cell, d.cfg.WindowW, d.cfg.WindowH).ScaleXY(l.sx, l.sy)
				out = append(out, eval.Detection{Box: box, Score: score})
			}
		}
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

// shardLevels splits each level's row count into up to `workers` contiguous
// shards, in (level, row) order. Levels with fewer rows than workers yield
// fewer shards; a zero row count yields none.
func shardLevels(rows []int, workers int) []rowShard {
	var shards []rowShard
	for level, n := range rows {
		if n < 1 {
			continue
		}
		step := (n + workers - 1) / workers
		for r := 0; r < n; r += step {
			r1 := r + step
			if r1 > n {
				r1 = n
			}
			shards = append(shards, rowShard{level: level, row0: r, row1: r1})
		}
	}
	return shards
}

// runShards executes fn over the shards on a pool of `workers` goroutines.
// fn must be safe for concurrent calls on distinct shard indices and is
// expected to observe ctx itself for sub-shard cancellation granularity.
// Each worker goroutine recovers its own panics — a poison shard (corrupt
// feature data) is reported as an error instead of crashing the process —
// and cancellation stops job dispatch between shards. On a non-nil return
// the shard outputs are incomplete and must be discarded.
func runShards(ctx context.Context, shards []rowShard, workers int, fn func(i int, s rowShard) error) error {
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for i, s := range shards {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i, s); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make(chan int)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("core: scan worker panic: %v", r)
					// Keep draining so the dispatcher never blocks on a
					// dead worker pool.
					for range jobs {
					}
				}
			}()
			for i := range jobs {
				if errs[w] != nil || ctx.Err() != nil {
					continue // drain without scanning
				}
				if err := fn(i, shards[i]); err != nil {
					errs[w] = err
				}
			}
		}(w)
	}
	for i := range shards {
		select {
		case jobs <- i:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstError(errs)
}

// scanRows returns the number of window rows of each level (zero when the
// window does not fit).
func (d *Detector) scanRows(levels []pyrLevel) []int {
	wbx, wby := d.cfg.windowBlocks()
	rows := make([]int, len(levels))
	for i, l := range levels {
		if l.fm.BlocksX >= wbx && l.fm.BlocksY >= wby {
			rows[i] = l.fm.BlocksY - wby + 1
		}
	}
	return rows
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

// scanLevels scores every window of every level, sharding levels across
// window rows over the worker pool. Shard outputs are concatenated in
// (level, row) order, so the result is exactly the raster-order slice a
// serial scan produces — detections are byte-identical for every worker
// count. On cancellation or a worker failure partial output is discarded
// and the error returned.
func (d *Detector) scanLevels(ctx context.Context, levels []pyrLevel) ([]eval.Detection, error) {
	if err := d.probeLevels(ctx, levels); err != nil {
		return nil, err
	}
	rows := d.scanRows(levels)
	workers := d.cfg.workers()
	if workers <= 1 {
		var out []eval.Detection
		var err error
		for i, l := range levels {
			out, err = d.scanLevelRows(ctx, l, 0, rows[i], out)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	shards := shardLevels(rows, workers)
	outs := make([][]eval.Detection, len(shards))
	err := runShards(ctx, shards, workers, func(i int, s rowShard) error {
		var err error
		outs[i], err = d.scanLevelRows(ctx, levels[s.level], s.row0, s.row1, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []eval.Detection
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil
}
