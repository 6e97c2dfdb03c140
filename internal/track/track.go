// Package track provides the temporal layer a driver-assistance system
// puts on top of the per-frame detector: greedy IoU data association with
// track confirmation and coasting, plus the latency metrics that connect
// detector throughput to the paper's perception-reaction-time analysis
// (how many frames until a newly visible pedestrian is a confirmed track).
package track

import (
	"fmt"
	"sort"

	"repro/internal/eval"
	"repro/internal/geom"
)

// Config tunes the tracker.
type Config struct {
	// MatchIoU is the minimum IoU for associating a detection with a track.
	MatchIoU float64
	// ConfirmHits is how many associated detections promote a tentative
	// track to confirmed.
	ConfirmHits int
	// MaxMisses is how many consecutive unmatched frames a track survives
	// (coasting) before deletion.
	MaxMisses int
}

// DefaultConfig returns a conservative 2-of-N confirmation tracker.
func DefaultConfig() Config {
	return Config{MatchIoU: 0.3, ConfirmHits: 2, MaxMisses: 3}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MatchIoU <= 0 || c.MatchIoU > 1 {
		return fmt.Errorf("track: match IoU %g out of (0,1]", c.MatchIoU)
	}
	if c.ConfirmHits < 1 || c.MaxMisses < 0 {
		return fmt.Errorf("track: invalid confirm/miss thresholds %d/%d", c.ConfirmHits, c.MaxMisses)
	}
	return nil
}

// State is a track's lifecycle stage.
type State int

const (
	// Tentative tracks have been seen but not yet confirmed.
	Tentative State = iota
	// Confirmed tracks have accumulated ConfirmHits associations.
	Confirmed
	// Deleted tracks exceeded MaxMisses and have left the tracker; only a
	// caller still holding one sees this state.
	Deleted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Tentative:
		return "tentative"
	case Confirmed:
		return "confirmed"
	case Deleted:
		return "deleted"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Track is one tracked pedestrian.
type Track struct {
	ID    int
	Box   geom.Rect // last associated (or coasted) box
	Score float64   // last detection score
	State State
	Hits  int // total associated detections
	Miss  int // consecutive misses
	// BornFrame and ConfirmedFrame record latency: frames are indexed from
	// the tracker's first Update call.
	BornFrame      int
	ConfirmedFrame int // -1 until confirmed
	velX, velY     float64
}

// Tracker maintains the track set across frames.
type Tracker struct {
	cfg    Config
	nextID int
	frame  int
	tracks []*Track // live tracks in birth order; Update drops the deleted
}

// New returns an empty tracker. It panics on an invalid configuration (a
// programming error, caught by Validate in tests).
func New(cfg Config) *Tracker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Tracker{cfg: cfg}
}

// Tracks returns the live (non-deleted) tracks.
func (t *Tracker) Tracks() []*Track {
	return append([]*Track(nil), t.tracks...)
}

// Confirmed returns only the confirmed tracks — what a DAS would act on.
func (t *Tracker) Confirmed() []*Track {
	var out []*Track
	for _, tr := range t.tracks {
		if tr.State == Confirmed {
			out = append(out, tr)
		}
	}
	return out
}

// Frame returns the number of Update calls so far.
func (t *Tracker) Frame() int { return t.frame }

// AppendLiveBoxes appends the current boxes of every live (non-deleted)
// track to dst and returns it. Tentative tracks are included: the ROI
// scheduler must keep scanning a candidate or it can never confirm. The
// append-style signature lets a per-frame caller reuse one backing slice
// (dst[:0]) and stay off the heap.
func (t *Tracker) AppendLiveBoxes(dst []geom.Rect) []geom.Rect {
	for _, tr := range t.tracks {
		dst = append(dst, tr.Box)
	}
	return dst
}

// Update associates one frame's detections with the track set: greedy
// best-IoU matching in descending detection-score order, with constant-
// velocity coasting of the predicted box for unmatched tracks.
func (t *Tracker) Update(dets []eval.Detection) {
	// Predict: move each live track by its velocity.
	for _, tr := range t.tracks {
		tr.Box = tr.Box.Translate(geom.Pt{X: int(tr.velX), Y: int(tr.velY)})
	}
	order := make([]int, len(dets))
	for i := range order {
		order[i] = i
	}
	// Tie-break equal scores by detection index: sort.Slice is unstable, so
	// without it two same-score detections could associate in either order
	// and steal each other's track run to run.
	sort.Slice(order, func(a, b int) bool {
		if dets[order[a]].Score != dets[order[b]].Score {
			return dets[order[a]].Score > dets[order[b]].Score
		}
		return order[a] < order[b]
	})

	matched := make(map[*Track]bool)
	usedDet := make([]bool, len(dets))
	for _, di := range order {
		best := t.cfg.MatchIoU
		var bestTrack *Track
		for _, tr := range t.tracks {
			if matched[tr] {
				continue
			}
			if iou := geom.IoU(dets[di].Box, tr.Box); iou >= best {
				best = iou
				bestTrack = tr
			}
		}
		if bestTrack == nil {
			continue
		}
		// Associate: update box, velocity, lifecycle.
		old := bestTrack.Box
		bestTrack.velX = 0.6*bestTrack.velX + 0.4*float64(dets[di].Box.Min.X-old.Min.X)
		bestTrack.velY = 0.6*bestTrack.velY + 0.4*float64(dets[di].Box.Min.Y-old.Min.Y)
		bestTrack.Box = dets[di].Box
		bestTrack.Score = dets[di].Score
		bestTrack.Hits++
		bestTrack.Miss = 0
		if bestTrack.State == Tentative && bestTrack.Hits >= t.cfg.ConfirmHits {
			bestTrack.State = Confirmed
			bestTrack.ConfirmedFrame = t.frame
		}
		matched[bestTrack] = true
		usedDet[di] = true
	}
	// Unmatched tracks coast or die. The dead leave the set in place, so
	// the live tracks keep their birth order (association ties go to the
	// last-iterated track) and a long stream's churn costs no memory.
	live := t.tracks[:0]
	for _, tr := range t.tracks {
		if !matched[tr] {
			tr.Miss++
			if tr.Miss > t.cfg.MaxMisses {
				tr.State = Deleted
				continue
			}
		}
		live = append(live, tr)
	}
	clear(t.tracks[len(live):])
	t.tracks = live
	// Unmatched detections start tentative tracks.
	for di, used := range usedDet {
		if used {
			continue
		}
		tr := &Track{
			ID:             t.nextID,
			Box:            dets[di].Box,
			Score:          dets[di].Score,
			State:          Tentative,
			Hits:           1,
			BornFrame:      t.frame,
			ConfirmedFrame: -1,
		}
		if t.cfg.ConfirmHits == 1 {
			tr.State = Confirmed
			tr.ConfirmedFrame = t.frame
		}
		t.nextID++
		t.tracks = append(t.tracks, tr)
	}
	t.frame++
}

// Metrics summarizes tracking quality against ground truth with stable
// identities (a MOTA-style accounting).
type Metrics struct {
	Frames      int
	Matches     int // confirmed-track-to-truth matches summed over frames
	Misses      int // truth boxes with no confirmed track
	FalseTracks int // confirmed tracks with no truth box
	IDSwitches  int // truth identity re-assigned to a different track ID
	// MeanConfirmLatency is the average frames from a track's birth to its
	// confirmation.
	MeanConfirmLatency float64
}

// MOTA returns the multi-object tracking accuracy:
// 1 - (misses + false tracks + switches) / total truth boxes.
func (m Metrics) MOTA() float64 {
	total := m.Matches + m.Misses
	if total == 0 {
		return 0
	}
	return 1 - float64(m.Misses+m.FalseTracks+m.IDSwitches)/float64(total)
}

// Evaluate replays a clip through a fresh tracker fed by detector outputs
// and scores it against ground truth. dets[f] are the detections of frame
// f; truth/ids carry the ground truth with stable identities.
func Evaluate(cfg Config, dets [][]eval.Detection, truth [][]geom.Rect, ids [][]int) (Metrics, error) {
	if len(dets) != len(truth) || len(truth) != len(ids) {
		return Metrics{}, fmt.Errorf("track: dets/truth/ids lengths differ: %d/%d/%d",
			len(dets), len(truth), len(ids))
	}
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	tk := New(cfg)
	var m Metrics
	lastAssign := map[int]int{} // truth identity -> track ID
	var confirmLatencies []int
	seenConfirmed := map[int]bool{}
	for f := range dets {
		tk.Update(dets[f])
		m.Frames++
		confirmed := tk.Confirmed()
		for _, tr := range confirmed {
			if !seenConfirmed[tr.ID] {
				seenConfirmed[tr.ID] = true
				confirmLatencies = append(confirmLatencies, tr.ConfirmedFrame-tr.BornFrame)
			}
		}
		// Greedy truth-to-track matching by IoU.
		usedTrack := make(map[int]bool)
		for gi, gt := range truth[f] {
			best := cfg.MatchIoU
			bestTrack := -1
			for _, tr := range confirmed {
				if usedTrack[tr.ID] {
					continue
				}
				if iou := geom.IoU(gt, tr.Box); iou >= best {
					best = iou
					bestTrack = tr.ID
				}
			}
			if bestTrack < 0 {
				m.Misses++
				continue
			}
			usedTrack[bestTrack] = true
			m.Matches++
			identity := ids[f][gi]
			if prev, ok := lastAssign[identity]; ok && prev != bestTrack {
				m.IDSwitches++
			}
			lastAssign[identity] = bestTrack
		}
		for _, tr := range confirmed {
			if !usedTrack[tr.ID] {
				m.FalseTracks++
			}
		}
	}
	if len(confirmLatencies) > 0 {
		sum := 0
		for _, l := range confirmLatencies {
			sum += l
		}
		m.MeanConfirmLatency = float64(sum) / float64(len(confirmLatencies))
	}
	return m, nil
}
