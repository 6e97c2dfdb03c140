package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/featpyr"
	"repro/internal/hog"
)

// Arena pools the per-frame scratch behind the detect path: the HOG front
// end's buffers (luminance plane, cell grid, base feature map), the level
// store the feature pyramids resample into, and the scan's level and shard
// bookkeeping. They are reused across frames instead of reallocated, which
// keeps Detect's steady-state allocations a small constant (pinned by
// TestDetectAllocs), and the base map is scanned in place as level 0 rather
// than copied — the software analogue of the hardware's NHOGMem and scaler
// buffers, one fixed memory reused every frame.
//
// An Arena is safe for concurrent use; each in-flight frame checks out its
// own scratch and holds it until its scan ends. Detectors sharing an Arena
// (the streaming runtime shares one across its degradation rungs, which run
// one frame at a time) also share the pooled buffers, so switching rungs
// does not re-grow them. Idle scratches sit in a sync.Pool, so an arena
// whose detector goes quiet gives its buffers back to the garbage
// collector; a scratch lost that way (or to the race detector's random
// pool drops) regrows in a fixed handful of allocations, however many
// levels the pyramid has.
type Arena struct {
	pool   sync.Pool
	gets   atomic.Uint64
	misses atomic.Uint64
}

// NewArena returns an empty arena; scratch buffers grow on first use.
func NewArena() *Arena {
	a := &Arena{}
	a.pool.New = func() any {
		a.misses.Add(1)
		return &frameScratch{hog: hog.NewScratch()}
	}
	return a
}

// Counters reports how many scratches have been checked out and how many of
// those checkouts missed the pool (constructing a fresh scratch whose
// buffers grow from empty). A steady-state detector should show misses
// bounded by its peak frame concurrency; growth past that means buffers are
// being thrown away somewhere.
func (a *Arena) Counters() (gets, misses uint64) {
	return a.gets.Load(), a.misses.Load()
}

func (a *Arena) get() *frameScratch {
	a.gets.Add(1)
	return a.pool.Get().(*frameScratch)
}

func (a *Arena) put(fs *frameScratch) {
	fs.hog.Metrics = nil
	// Drop the level references so a pooled scratch does not keep an image
	// pyramid's or an octave's per-frame maps alive.
	clear(fs.levels[:cap(fs.levels)])
	fs.levels = fs.levels[:0]
	a.pool.Put(fs)
}

// frameScratch is one frame's checkout from the Arena. The levels it holds
// alias hog (level 0 of the feature pyramids is hog's base map) and pyr
// (every resampled level), so it stays checked out until the scan is done.
type frameScratch struct {
	hog *hog.Scratch
	pyr featpyr.Pyramid
	// octPlan is the image or octave pyramid's level plan, and ext the
	// fan-out that extracts its octaves >= 1, with one lane of buffers
	// per extraction goroutine, grown on the first frame that needs it.
	octPlan []octaveLevel
	ext     octaveFanOut
	// levels are the levels to scan, finest first, after SkipFinest.
	levels []pyrLevel
	// rows, shards and outs are the scan's per-level window-row counts,
	// its row shards, and each shard's detections; outs keep their
	// capacity across frames.
	rows   []int
	shards []rowShard
	outs   [][]eval.Detection
}
