package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/roi"
	"repro/internal/svm"
	"repro/internal/track"
)

const (
	// hdWarmupFrames run inside set-up so the arena and the pyramid pools
	// have grown before the clock of the timed phase starts.
	hdWarmupFrames = 2
	// hdDeadline is the on-time limit of one 1080p frame for fps.
	hdDeadline = time.Second
)

// hdStack is the detector of the hd-dense and hd-tracked workloads: one
// stream, one frame in flight. With tracked set, the ROI scheduler plans
// each frame from the tracker's live boxes before the detector runs.
type hdStack struct {
	in      *inputs
	det     *core.Detector
	arena   *core.Arena
	rec     *obs.DetectRecorder // nil unless traced
	tracked bool
	regions *core.RegionSet
	sched   *roi.Scheduler
	tracker *track.Tracker
	boxes   []geom.Rect
	next    int // replay position
}

// hdFrame is one frame's outcome and spans.
type hdFrame struct {
	index  int
	dets   []eval.Detection
	err    error
	plan   roi.Plan
	total  time.Duration // plan + detect + track update
	detect time.Duration
	roi    time.Duration
	update time.Duration
	stages [obs.NumStages]int64
}

func newHDStack(in *inputs, tracked, traced bool) (*hdStack, error) {
	model, err := svm.Read(bytes.NewReader(in.model))
	if err != nil {
		return nil, fmt.Errorf("decoding model: %w", err)
	}
	s := &hdStack{in: in, arena: core.NewArena(), tracked: tracked}
	cfg := in.cfg
	cfg.Arena = s.arena
	if traced {
		s.rec = obs.NewDetectRecorder(obs.NewMetrics())
		cfg.Metrics = s.rec
	}
	if tracked {
		if s.sched, err = roi.New(roi.DefaultConfig()); err != nil {
			return nil, err
		}
		s.regions = core.NewRegionSet()
		cfg.Regions = s.regions
		s.tracker = track.New(track.DefaultConfig())
	}
	if s.det, err = core.NewDetector(model, cfg); err != nil {
		return nil, err
	}
	for i := 0; i < hdWarmupFrames; i++ {
		if fr := s.step(); fr.err != nil {
			return nil, fmt.Errorf("warm-up frame: %w", fr.err)
		}
	}
	return s, nil
}

// pingPong maps the i-th replayed frame onto a clip of n frames played
// forward then backward, so motion and track identities stay continuous.
func pingPong(i, n int) int {
	if n < 2 {
		return 0
	}
	period := 2 * (n - 1)
	k := i % period
	if k < n {
		return k
	}
	return period - k
}

// step runs the next frame of the replay.
func (s *hdStack) step() hdFrame {
	fr := hdFrame{index: pingPong(s.next, len(s.in.clip.Frames))}
	s.next++
	frame := s.in.clip.Frames[fr.index]
	t0 := time.Now()
	if s.tracked {
		s.boxes = s.tracker.AppendLiveBoxes(s.boxes[:0])
		fr.plan = s.sched.Plan(s.boxes, frame.W, frame.H)
		if fr.plan.Full {
			s.regions.Clear()
		} else {
			s.regions.Set(fr.plan.Regions)
		}
	} else {
		fr.plan.Full = true
	}
	t1 := time.Now()
	fr.dets, fr.err = s.det.Detect(frame)
	t2 := time.Now()
	if s.tracked && fr.err == nil {
		s.tracker.Update(fr.dets)
	}
	t3 := time.Now()
	fr.roi, fr.detect, fr.update, fr.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	fr.stages = s.rec.FrameStages()
	return fr
}

// correct checks a frame's detections exactly. A dense frame must equal
// the reference detections of its clip frame; a restricted frame must
// equal the dense scan's windows filtered by the plan's regions, after NMS.
func (s *hdStack) correct(fr hdFrame) bool {
	if fr.plan.Full {
		return sameDetections(fr.dets, s.in.clipRef[fr.index])
	}
	regions := fr.plan.Regions
	if regions == nil {
		regions = []geom.Rect{} // an empty plan scans nothing
	}
	return sameDetections(fr.dets, s.in.reference(s.in.clipAnchors[fr.index], regions))
}

func (s *hdStack) measure(d time.Duration, minSamples int, sp *speedometer) (phase, error) {
	var ph phase
	ph.lat = make([]float64, 0, 256)
	var ledger hdLedger
	var ms0 runtime.MemStats
	gets0, misses0 := s.arena.Counters()
	if s.rec != nil {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	for time.Since(start) < d || ph.out.attempted < minSamples {
		fr := s.step()
		sp.sample(1)
		ph.out.attempted++
		ph.elapsed += fr.total
		if fr.err != nil {
			ph.out.failed++
			continue
		}
		ph.lat = append(ph.lat, msOf(fr.total))
		switch {
		case !s.correct(fr):
			ph.out.wrong++
			ph.out.failed++
		case fr.total <= hdDeadline:
			ph.out.ok++
		}
		ph.q.add(fr.dets, s.in.clip.Truth[fr.index])
		if s.rec != nil {
			ledger.add(fr, s.in.clip.Frames[fr.index].Bounds())
		}
	}
	if s.rec != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		gets1, misses1 := s.arena.Counters()
		ph.layers = ledger.values()
		n := float64(ledger.frames)
		ph.layers["core.allocs_per_frame"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), n)
		ph.layers["core.alloc_kb_per_frame"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, n)
		ph.layers["core.arena_miss_ratio"] = ratio(float64(misses1-misses0), float64(gets1-gets0))
	}
	return ph, nil
}

func (s *hdStack) settle() error { return s.step().err }

func (s *hdStack) close() {}

// hdLedger sums the spans of traced frames.
type hdLedger struct {
	frames              int
	detect, roi, update time.Duration
	stages              [obs.NumStages]int64
	fullScans           int
	scanArea            float64 // sum over frames of the scanned share of the frame
}

func (l *hdLedger) add(fr hdFrame, bounds geom.Rect) {
	l.frames++
	l.detect += fr.detect
	l.roi += fr.roi
	l.update += fr.update
	for i, v := range fr.stages {
		l.stages[i] += v
	}
	if fr.plan.Full {
		l.fullScans++
		l.scanArea++
		return
	}
	area := 0
	for _, r := range fr.plan.Regions {
		area += r.Intersect(bounds).Area()
	}
	l.scanArea += float64(area) / float64(bounds.Area())
}

// values turns the sums into per-frame means. The detect span splits into
// the core stage spans plus core.unattributed_ms, the reconciliation row.
func (l *hdLedger) values() map[string]float64 {
	n := float64(l.frames)
	perFrameMs := func(ns int64) float64 { return ratio(float64(ns)/1e6, n) }
	stageSum := int64(0)
	for _, v := range l.stages {
		stageSum += v
	}
	v := offPathLayers()
	v["core.detect_ms"] = perFrameMs(int64(l.detect))
	v["core.scan_ms"] = perFrameMs(l.stages[obs.StageScan])
	v["core.nms_ms"] = perFrameMs(l.stages[obs.StageNMS])
	v["core.unattributed_ms"] = perFrameMs(int64(l.detect) - stageSum)
	v["hog.cells_ms"] = perFrameMs(l.stages[obs.StageHOGCells])
	v["hog.norm_ms"] = perFrameMs(l.stages[obs.StageHOGNorm])
	v["featpyr.pyramid_ms"] = perFrameMs(l.stages[obs.StagePyramid])
	v["roi.plan_us"] = ratio(float64(l.roi)/1e3, n)
	v["track.update_us"] = ratio(float64(l.update)/1e3, n)
	v["roi.full_scan_ratio"] = ratio(float64(l.fullScans), n)
	v["roi.scan_area_ratio"] = ratio(l.scanArea, n)
	return v
}
