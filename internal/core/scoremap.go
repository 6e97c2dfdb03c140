package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/par"
)

// ScoreMap is the dense grid of SVM decision values of one pyramid level:
// entry (x, y) is the score of the window anchored at block (x, y). It is
// the intermediate the sliding-window detector thresholds, exposed for
// heat-map inspection and custom post-processing.
type ScoreMap struct {
	// Scale and ScaleY map level pixel coordinates back to the frame
	// horizontally and vertically; they differ in general because level
	// grids are rounded to integers independently per axis.
	Scale  float64
	ScaleY float64
	W, H   int // anchor grid dimensions
	Scores []float64
}

// At returns the score of anchor (x, y).
func (sm *ScoreMap) At(x, y int) float64 { return sm.Scores[y*sm.W+x] }

// Max returns the peak score and its anchor.
func (sm *ScoreMap) Max() (x, y int, score float64) {
	score = math.Inf(-1)
	for i, v := range sm.Scores {
		if v > score {
			score = v
			x, y = i%sm.W, i/sm.W
		}
	}
	return x, y, score
}

// ToImage renders the map as an 8-bit heat image, linearly mapping the
// scored [min, max] to [0, 255]. Anchors never scored (-Inf: outside the
// ROI regions or pruned by the cascade) render black. A constant map
// renders mid-grey.
func (sm *ScoreMap) ToImage() *imgproc.Gray {
	img := imgproc.NewGray(sm.W, sm.H)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range sm.Scores {
		if !math.IsInf(v, -1) {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	for i, v := range sm.Scores {
		switch {
		case math.IsInf(v, -1):
			// Pix starts black.
		case hi <= lo:
			img.Pix[i] = 128
		default:
			img.Pix[i] = uint8(255 * (v - lo) / (hi - lo))
		}
	}
	return img
}

// ScoreMaps computes the dense decision values of every pyramid level for
// the frame (no thresholding, no NMS). Levels come from the same builder as
// DetectRaw, so the maps correspond exactly to the windows the configured
// Mode scans — every pyramid mode gets heat maps of its own pyramid — and
// DetectRaw's anchor scorer fills them. Scoring is zero-copy and sharded
// across window rows over the configured worker pool. An active
// Config.Regions set restricts scoring to the region anchor spans exactly
// like DetectRaw; anchors outside the regions read as -Inf. With the
// calibrated cascade on, anchors it prunes read as -Inf too, so
// thresholding a map selects exactly DetectRaw's windows.
func (d *Detector) ScoreMaps(frame *imgproc.Gray) ([]*ScoreMap, error) {
	return d.ScoreMapsCtx(context.Background(), frame)
}

// ScoreMapsCtx is ScoreMaps with cooperative cancellation (see DetectCtx).
func (d *Detector) ScoreMapsCtx(ctx context.Context, frame *imgproc.Gray) ([]*ScoreMap, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fs, err := d.buildLevels(ctx, frame)
	if err != nil {
		return nil, err
	}
	defer d.arena.put(fs)
	levels := fs.levels
	d.applyRegions(levels)
	wbx, _ := d.cfg.windowBlocks()
	workers := d.cfg.workers()
	d.shardLevels(fs, workers)
	rows, shards := fs.rows, fs.shards
	maps := make([]*ScoreMap, len(levels))
	for i, l := range levels {
		if rows[i] < 1 {
			continue
		}
		nx := l.fm.BlocksX - wbx + 1
		maps[i] = &ScoreMap{
			Scale:  l.sx,
			ScaleY: l.sy,
			W:      nx,
			H:      rows[i],
			Scores: make([]float64, nx*rows[i]),
		}
		// An active region set restricts scoring exactly like DetectRaw:
		// anchors outside the spans are never evaluated and read as -Inf,
		// so thresholding a restricted map selects exactly the restricted
		// detections.
		if l.spans != nil {
			for j := range maps[i].Scores {
				maps[i].Scores[j] = math.Inf(-1)
			}
		}
	}
	err = par.Do(ctx, len(shards), workers, func(i int) error {
		s := shards[i]
		l, sm := levels[s.level], maps[s.level]
		var sc spanScratch
		err := d.scanAnchors(ctx, l, s.row0, s.row1, &sc, func(a hog.Anchor, score float64) {
			sm.Scores[a.Y*sm.W+a.X] = score
		})
		sc.tally.fold(d.cfg.Metrics.Metrics(), wbx)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := maps[:0]
	for _, sm := range maps {
		if sm != nil {
			out = append(out, sm)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
	}
	return out, nil
}
