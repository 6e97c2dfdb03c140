package hog

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/imgproc"
	"repro/internal/obs"
)

// Scratch is the reusable per-frame arena of the HOG front-end: the
// luminance plane, the cell grid, the normalized feature map, the banded
// interpolation halos, and the orientation threshold table all live here
// and are recycled across frames. A steady-state ComputeCellsInto /
// ComputeInto call allocates nothing (pinned by TestFrontEndAllocs).
//
// Ownership rules:
//
//   - The *CellGrid returned by ComputeCellsInto and the *FeatureMap
//     returned by ComputeInto alias the scratch; they are valid until the
//     next ...Into call on the same Scratch.
//   - A Scratch serves one frame at a time; concurrent frames need
//     distinct Scratches (core.Arena pools them per in-flight frame).
//   - Build one with NewScratch; the zero value has no fan-out jobs.
type Scratch struct {
	// Metrics, if non-nil, receives the front end's stage timings
	// (StageHOGCells, StageHOGNorm). The detect path sets it on arena
	// checkout and clears it on check-in (core.Arena); recording is
	// nil-safe and allocation-free, so the metrics-off path costs one
	// branch and the alloc budgets hold either way.
	Metrics *obs.DetectRecorder

	lum  []float64
	halo []float64
	grid CellGrid
	fm   FeatureMap
	bt   binTable
	// fc and nc are the per-pass contexts of the cell and normalization
	// fan-outs; lumJob, bandJob and normJob are their par.Do jobs, bound
	// once by NewScratch because a method value built per frame would
	// allocate.
	fc                       fusedCtx
	nc                       normCtx
	lumJob, bandJob, normJob func(int) error
}

// NewScratch returns an empty arena; buffers grow on first use and are
// retained afterwards.
func NewScratch() *Scratch {
	s := &Scratch{}
	s.lumJob = s.fc.lumJob
	s.bandJob = s.fc.band
	s.normJob = s.nc.rowJob
	return s
}

// scratchPool recycles arenas for the allocating convenience entry points
// (ComputeCells, Compute), which still return caller-owned results but
// reuse pooled temporaries (luminance plane, halos, threshold table)
// between calls.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// checkCells validates cfg against img and returns the cell grid size.
func checkCells(img *imgproc.Gray, cfg Config) (cellsX, cellsY int, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	cellsX = img.W / cfg.CellSize
	cellsY = img.H / cfg.CellSize
	if cellsX < 1 || cellsY < 1 {
		return 0, 0, fmt.Errorf("hog: image %dx%d smaller than one %dpx cell", img.W, img.H, cfg.CellSize)
	}
	return cellsX, cellsY, nil
}

// ComputeCellsInto computes dense cell histograms into s's reusable grid
// using the fused fast path, parallelized over luminance rows and cell-row
// bands by up to `workers` goroutines (<= 1 means serial; results are
// byte-identical at every worker count). The returned grid aliases s. It
// observes ctx: once ctx is done no further row run or band starts, and the
// error wraps ctx.Err() (the grid is then partly stale).
func ComputeCellsInto(ctx context.Context, img *imgproc.Gray, cfg Config, s *Scratch, workers int) (*CellGrid, error) {
	cellsX, cellsY, err := checkCells(img, cfg)
	if err != nil {
		return nil, err
	}
	n := cellsX * cellsY * cfg.Bins
	if cap(s.grid.Hist) < n {
		s.grid.Hist = make([]float64, n)
	}
	s.grid.CellsX, s.grid.CellsY, s.grid.Bins = cellsX, cellsY, cfg.Bins
	s.grid.Hist = s.grid.Hist[:n]
	t0 := time.Now()
	if err := computeCellsImpl(ctx, img, cfg, &s.grid, s, workers); err != nil {
		return nil, err
	}
	s.Metrics.Observe(obs.StageHOGCells, time.Since(t0))
	return &s.grid, nil
}

// ComputeInto runs the full fused pipeline (cells + block normalization)
// into s's reusable buffers, both stages on up to `workers` goroutines. The
// returned map aliases s; see the Scratch ownership rules. It observes ctx
// like ComputeCellsInto, in both stages.
func ComputeInto(ctx context.Context, img *imgproc.Gray, cfg Config, s *Scratch, workers int) (*FeatureMap, error) {
	grid, err := ComputeCellsInto(ctx, img, cfg, s, workers)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := s.normalizeInto(ctx, grid, cfg, &s.fm, workers); err != nil {
		return nil, err
	}
	s.Metrics.Observe(obs.StageHOGNorm, time.Since(t0))
	return &s.fm, nil
}
