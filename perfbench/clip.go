package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/imgproc"
)

// The clip's walkers stand on two sidewalks, each clipLanes/3 lanes wide
// at one edge of the frame, in up to two rows: a near row and, above its
// heads, a far row. A slot is one (side, lane, row).
const (
	clipLanes = 12 // lanes across the frame width
	sideLanes = 4  // lanes of each sidewalk, at the frame's two edges
	clipRows  = 2
	clipSlots = 2 * sideLanes * clipRows
)

// makeClip renders a dashcam clip over one static street background, bg,
// with walkers drawn from seed. Each walker keeps to its own slot, so
// walkers never occlude each other and every one of them is in the ground
// truth of every frame; within its lane a walker strides sideways, turns
// at the lane edges and grows as the camera approaches. A slot fixes its
// walker's depth: outer lanes and the near row are nearer the camera, so
// their walkers stand lower in the frame and taller. The seed draws each
// walker's pose, clothing, start, pace and direction.
func makeClip(bg *imgproc.Gray, seed int64, frames, walkers int) (*dataset.Sequence, error) {
	w, h := bg.W, bg.H
	g := dataset.New(seed)
	rng := rand.New(rand.NewSource(seed))
	const fps, approach, gait = 10.0, 0.05, 2.0 // frames/s, growth/s, strides/s
	type walker struct {
		id               int
		lo, hi           float64 // lane bounds for the walker's center
		x, feetY, height float64
		vx               float64 // px/s
		pose             dataset.Pose
	}
	if walkers > clipSlots {
		return nil, fmt.Errorf("clip has %d slots for %d walkers", clipSlots, walkers)
	}
	laneW := float64(w) / clipLanes
	ws := make([]*walker, walkers)
	for i := range ws {
		// Even walkers take the left sidewalk, odd the right; each side
		// fills its near row outside in, then its far row.
		depth := (i / 2) % sideLanes
		row := i / (2 * sideLanes)
		lane := depth
		if i%2 == 1 {
			lane = clipLanes - 1 - depth
		}
		feetY := float64(h) * (0.88 - 0.05*float64(depth))
		height := 180 - 15*float64(depth)
		if row == 1 {
			// Stand clear of the near walker's head, which rises by
			// under 7% over a 12-frame clip.
			feetY -= 1.1*height + 10
			height *= 0.85
		}
		half := height / 3 // clears the drawn figure's width
		lo, hi := float64(lane)*laneW+half, float64(lane+1)*laneW-half
		if lo >= hi || feetY-height < 0 {
			return nil, fmt.Errorf("clip %dx%d has no room for its walkers", w, h)
		}
		pose := dataset.RandomPose(rng)
		pose.CenterXFrac, pose.HeightFrac = 0.5, 0.95
		ws[i] = &walker{
			id: i, lo: lo, hi: hi,
			x:      lo + (hi-lo)*rng.Float64(),
			feetY:  feetY,
			height: height,
			vx:     (20 + 30*rng.Float64()) * float64(1-2*rng.Intn(2)),
			pose:   pose,
		}
	}
	noise := rand.New(rand.NewSource(rng.Int63()))
	seq := &dataset.Sequence{}
	for f := 0; f < frames; f++ {
		frame := bg.Clone()
		var truth []geom.Rect
		var ids []int
		for _, wk := range ws {
			if f > 0 {
				wk.x += wk.vx / fps
				wk.height *= 1 + approach/fps
				wk.pose.GaitPhase += 2 * math.Pi * gait / fps
				if wk.x < wk.lo || wk.x > wk.hi {
					wk.vx = -wk.vx
					wk.x = math.Max(wk.lo, math.Min(wk.hi, wk.x))
				}
			}
			hh := int(wk.height)
			box := geom.XYWH(int(wk.x)-hh/4, int(wk.feetY)-hh, hh/2, hh)
			dataset.DrawPedestrian(frame, box, wk.pose)
			truth = append(truth, dataset.FigureBounds(box, wk.pose))
			ids = append(ids, wk.id)
		}
		frame = imgproc.AddGaussianNoise(imgproc.GaussianBlur(frame, 0.6), g.NoiseStddev*0.7, noise)
		seq.Frames = append(seq.Frames, frame)
		seq.Truth = append(seq.Truth, truth)
		seq.IDs = append(seq.IDs, ids)
	}
	return seq, nil
}
