package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/imgproc"
)

// inputConfig sizes the generated inputs. The benchmark runs with
// defaultInputs; the tests shrink it to keep them quick.
type inputConfig struct {
	// Train is the seeded window set the fixture model is trained on.
	TrainPos, TrainNeg int
	// Clip is the 1080p dashcam clip of the hd-* workloads.
	ClipW, ClipH, ClipFrames, Walkers int
	// Crops are the 128x256 requests of crops-served, half of them
	// holding a pedestrian.
	Crops int
}

var defaultInputs = inputConfig{
	TrainPos: 200, TrainNeg: 600,
	ClipW: 1920, ClipH: 1080, ClipFrames: 12, Walkers: 16,
	Crops: 256,
}

// fixtureSeed seeds what every run shares: the training windows of the
// one fixture model, and the street the hd-* clips are filmed on. The
// workload seed draws the walkers, the sensor noise and the crops.
const fixtureSeed = 1

const (
	cropW, cropH = 128, 256
	// matchIoU is the PASCAL overlap at which a detection matches truth.
	matchIoU = 0.5
)

// crop is one crops-served request with its ground truth and the
// detections the model gives it.
type crop struct {
	img   *imgproc.Gray
	pgm   []byte // img encoded as the request body
	truth []geom.Rect
	ref   []eval.Detection
}

// inputs is everything a workload needs, made from the seed before any
// timed figure starts: the fixture model as bytes (set-up decodes it), the
// detector configuration, and the workload's frames with their ground
// truth and reference detections.
type inputs struct {
	model []byte
	cfg   core.Config
	clip  *dataset.Sequence
	// clipAnchors[f] is every window the dense scan of clip frame f scores
	// above the threshold, highest score first, and clipRef[f] is what
	// survives NMS of them: the detector's output on the frame.
	clipAnchors [][]anchor
	clipRef     [][]eval.Detection
	crops       []crop
}

// anchor is one window the dense scan scores above the threshold: its
// detection, and where the window sits on its pyramid level.
type anchor struct {
	det    eval.Detection
	x, y   int     // anchor cell on the level
	sx, sy float64 // level-to-frame scales
}

// detectorThreshold is the benchmark's operating point on the fixture
// model's score: recall above 0.9 with about eight false positives per
// 1080p frame of the fixture street. At the SVM boundary (0) the clutter
// gives some twenty, and the tracks they seed would spread the ROI scan
// over most of the frame.
const detectorThreshold = 0.25

// detectorConfig is the paper's operating point: HOG feature pyramid,
// scale step 1.1, every window scanned.
func detectorConfig(workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.FeaturePyramid
	cfg.ScaleStep = 1.1
	cfg.Threshold = detectorThreshold
	cfg.Workers = workers
	return cfg
}

// makeInputs renders the inputs of one workload from seed and trains the
// fixture model. The same seed always gives byte-identical inputs.
func makeInputs(w string, seed int64, ic inputConfig, workers int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	clipSeed, cropSeed := rng.Int63(), rng.Int63()
	in := &inputs{cfg: detectorConfig(workers)}

	g := dataset.New(fixtureSeed)
	set, err := g.RenderAt(g.NewSpecSet(ic.TrainPos, ic.TrainNeg), 1.0)
	if err != nil {
		return nil, fmt.Errorf("rendering training windows: %w", err)
	}
	det, err := core.Train(set, in.cfg, core.DefaultTrainOptions())
	if err != nil {
		return nil, fmt.Errorf("training fixture model: %w", err)
	}
	var buf bytes.Buffer
	if err := det.Model().Write(&buf); err != nil {
		return nil, fmt.Errorf("encoding fixture model: %w", err)
	}
	in.model = buf.Bytes()

	switch w {
	case "hd-dense", "hd-tracked":
		street, err := g.MakeScene(dataset.SceneConfig{W: ic.ClipW, H: ic.ClipH, ClutterDensity: 1})
		if err != nil {
			return nil, fmt.Errorf("rendering street: %w", err)
		}
		if in.clip, err = makeClip(street.Frame, clipSeed, ic.ClipFrames, ic.Walkers); err != nil {
			return nil, fmt.Errorf("rendering clip: %w", err)
		}
		for _, f := range in.clip.Frames {
			as, err := denseAnchors(det, f)
			if err != nil {
				return nil, fmt.Errorf("reference detections: %w", err)
			}
			in.clipAnchors = append(in.clipAnchors, as)
			in.clipRef = append(in.clipRef, in.reference(as, nil))
		}
	case "crops-served":
		cg := dataset.New(cropSeed)
		for i := 0; i < ic.Crops; i++ {
			c, err := makeCrop(cg, i%2 == 0)
			if err != nil {
				return nil, err
			}
			if c.ref, err = det.Detect(c.img); err != nil {
				return nil, fmt.Errorf("reference detections: %w", err)
			}
			var b bytes.Buffer
			if err := imgproc.WritePGM(&b, c.img); err != nil {
				return nil, fmt.Errorf("encoding crop: %w", err)
			}
			c.pgm = b.Bytes()
			in.crops = append(in.crops, c)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	return in, nil
}

// denseAnchors rebuilds, from the dense score maps, every window the
// detector keeps before NMS, in the order DetectRaw returns them: raster
// order within a level, stably sorted by score.
func denseAnchors(det *core.Detector, frame *imgproc.Gray) ([]anchor, error) {
	maps, err := det.ScoreMaps(frame)
	if err != nil {
		return nil, err
	}
	cfg := det.Config()
	cell := cfg.HOG.CellSize
	var as []anchor
	for _, sm := range maps {
		if sm == nil {
			continue // a level too small for one window
		}
		for y := 0; y < sm.H; y++ {
			for x := 0; x < sm.W; x++ {
				score := sm.At(x, y)
				if !(score > cfg.Threshold) {
					continue
				}
				box := geom.XYWH(x*cell, y*cell, cfg.WindowW, cfg.WindowH).ScaleXY(sm.Scale, sm.ScaleY)
				as = append(as, anchor{eval.Detection{Box: box, Score: score}, x, y, sm.Scale, sm.ScaleY})
			}
		}
	}
	sort.SliceStable(as, func(i, j int) bool { return as[i].det.Score > as[j].det.Score })
	return as, nil
}

// reference is the detector's output when it scans only the windows of as
// whose center lies in one of regions, or every window when regions is
// nil. The detector scans a window of a restricted frame exactly when its
// center, projected onto the window's level with the region's corners
// rounded outward, lies in a region (core.RegionSet); what it keeps is
// then the dense output filtered by that rule, in the same order.
func (in *inputs) reference(as []anchor, regions []geom.Rect) []eval.Detection {
	cell := in.cfg.HOG.CellSize
	var kept []eval.Detection
	for _, a := range as {
		if regions == nil {
			kept = append(kept, a.det)
			continue
		}
		cx := a.x*cell + in.cfg.WindowW/2
		cy := a.y*cell + in.cfg.WindowH/2
		for _, r := range regions {
			if cx >= int(math.Floor(float64(r.Min.X)/a.sx)) && cx < int(math.Ceil(float64(r.Max.X)/a.sx)) &&
				cy >= int(math.Floor(float64(r.Min.Y)/a.sy)) && cy < int(math.Ceil(float64(r.Max.Y)/a.sy)) {
				kept = append(kept, a.det)
				break
			}
		}
	}
	if in.cfg.NMSOverlap > 0 {
		return core.NMS(kept, in.cfg.NMSOverlap)
	}
	return kept
}

// makeCrop renders one 128x256 street crop, with one pedestrian filling
// most of its height when pedestrian is set and only clutter otherwise.
func makeCrop(g *dataset.Generator, pedestrian bool) (crop, error) {
	sc := dataset.SceneConfig{W: cropW, H: cropH, ClutterDensity: 1, MinHeight: 110, MaxHeight: 180}
	if pedestrian {
		sc.Pedestrians = 1
	}
	// Placement can fail when a drawn height does not fit the ground
	// plane; draw again so every pedestrian crop holds one.
	for attempt := 0; attempt < 32; attempt++ {
		s, err := g.MakeScene(sc)
		if err != nil {
			return crop{}, fmt.Errorf("rendering crop: %w", err)
		}
		if len(s.Truth) == sc.Pedestrians {
			return crop{img: s.Frame, truth: s.Truth}, nil
		}
	}
	return crop{}, fmt.Errorf("rendering crop: no pedestrian placed in 32 draws")
}

// digest hashes every generated input: model bytes, pixels, ground truth
// and reference detections.
func (in *inputs) digest() [32]byte {
	h := sha256.New()
	put := func(vs ...any) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v) // hash.Hash writes never fail
		}
	}
	rects := func(rs []geom.Rect) {
		put(int64(len(rs)))
		for _, r := range rs {
			put(int64(r.Min.X), int64(r.Min.Y), int64(r.Max.X), int64(r.Max.Y))
		}
	}
	dets := func(ds []eval.Detection) {
		put(int64(len(ds)))
		for _, d := range ds {
			rects([]geom.Rect{d.Box})
			put(d.Score)
		}
	}
	h.Write(in.model)
	if in.clip != nil {
		for f, fr := range in.clip.Frames {
			h.Write(fr.Pix)
			rects(in.clip.Truth[f])
			dets(in.clipRef[f])
		}
	}
	for _, c := range in.crops {
		h.Write(c.img.Pix)
		rects(c.truth)
		dets(c.ref)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// quality accumulates detection matches against ground truth.
type quality struct{ tp, fp, fn int }

func (q *quality) add(dets []eval.Detection, truth []geom.Rect) {
	m := eval.MatchDetections(dets, truth, matchIoU)
	q.tp += m.TP
	q.fp += m.FP
	q.fn += m.FN
}

func (q *quality) merge(o quality) {
	q.tp += o.tp
	q.fp += o.fp
	q.fn += o.fn
}

func (q quality) recall() float64    { return ratio(float64(q.tp), float64(q.tp+q.fn)) }
func (q quality) precision() float64 { return ratio(float64(q.tp), float64(q.tp+q.fp)) }

// sameDetections reports whether two detection lists are identical, box
// for box and score for score.
func sameDetections(a, b []eval.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
