// Package hog implements the Dalal-Triggs histogram-of-oriented-gradients
// descriptor used by the paper: centered [-1,0,1] gradients, 9 unsigned
// orientation bins with two-nearest-bin magnitude voting, 8x8-pixel cells,
// 2x2-cell blocks, and L2-Hys block normalization.
//
// Two block layouts are supported, because the paper's software analysis and
// its hardware use slightly different ones:
//
//   - LayoutOverlap: the original Dalal-Triggs dense overlapping layout.
//     A frame of cx x cy cells has (cx-1) x (cy-1) blocks, and a 64x128
//     window (8x16 cells) contains 7x15 = 105 blocks = 3780 features.
//
//   - LayoutPerCell: the hardware layout of Hemmati et al. [DSD'14], where
//     every cell owns the normalized block anchored at it (its right/bottom
//     neighbours complete the block, clamped at the frame edge). A frame of
//     cx x cy cells has cx x cy blocks and a 64x128 window contains
//     8x16 = 128 blocks = 4608 features — matching the paper's "each
//     detection window is consisted of 16x8 blocks" and the NHOGMem banking.
//
// The dense FeatureMap form is what the paper's contribution operates on:
// package featpyr down-samples FeatureMaps to form the HOG feature pyramid.
package hog

import (
	"context"
	"fmt"
	"math"

	"repro/internal/imgproc"
)

// Layout selects how blocks tile the cell grid.
type Layout int

const (
	// LayoutOverlap is the Dalal-Triggs layout: blocks at every interior
	// cell corner, (cx-1) x (cy-1) blocks for a cx x cy cell grid.
	LayoutOverlap Layout = iota
	// LayoutPerCell is the hardware layout: one block anchored at every
	// cell, neighbours clamped at the frame edge, cx x cy blocks.
	LayoutPerCell
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutOverlap:
		return "overlap"
	case LayoutPerCell:
		return "percell"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// Norm selects the block normalization scheme.
type Norm int

const (
	// L2Hys is L2 normalization, clipping at HysClip, then renormalizing
	// (the Dalal-Triggs default).
	L2Hys Norm = iota
	// L2 is plain L2 normalization.
	L2
	// L1Sqrt is L1 normalization followed by element-wise square root.
	L1Sqrt
)

// String implements fmt.Stringer.
func (n Norm) String() string {
	switch n {
	case L2Hys:
		return "l2hys"
	case L2:
		return "l2"
	case L1Sqrt:
		return "l1sqrt"
	}
	return fmt.Sprintf("Norm(%d)", int(n))
}

// Config holds the HOG parameters. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	CellSize   int     // cell side in pixels (8)
	BlockCells int     // block side in cells (2)
	Bins       int     // orientation bins over [0, pi) (9)
	Norm       Norm    // block normalization scheme
	HysClip    float64 // L2-Hys clipping threshold (0.2)
	Epsilon    float64 // normalization regularizer (1e-3 in [0,1] pixel units)
	Layout     Layout  // block tiling
	// InterpolateCells additionally splits each pixel's vote bilinearly
	// across the four nearest cells (full Dalal-Triggs trilinear voting).
	// The paper's hardware bins pixels into their own cell only, so the
	// default is false.
	InterpolateCells bool
	// SqrtGamma applies sqrt gamma compression to pixel values before
	// gradient computation (a Dalal-Triggs option; off by default to match
	// the hardware).
	SqrtGamma bool
}

// DefaultConfig returns the configuration used throughout the paper:
// 8x8 cells, 2x2-cell blocks, 9 bins, L2-Hys, hardware block layout.
func DefaultConfig() Config {
	return Config{
		CellSize:   8,
		BlockCells: 2,
		Bins:       9,
		Norm:       L2Hys,
		HysClip:    0.2,
		Epsilon:    1e-3,
		Layout:     LayoutPerCell,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.CellSize < 2 {
		return fmt.Errorf("hog: cell size %d too small", c.CellSize)
	}
	if c.BlockCells < 1 {
		return fmt.Errorf("hog: block size %d cells too small", c.BlockCells)
	}
	if c.Bins < 2 {
		return fmt.Errorf("hog: %d bins too few", c.Bins)
	}
	// The negated comparisons also catch NaN, for which every comparison
	// is false.
	if !(c.HysClip > 0) {
		return fmt.Errorf("hog: hys clip %g not positive", c.HysClip)
	}
	if !(c.Epsilon > 0) || math.IsInf(c.Epsilon, 1) {
		return fmt.Errorf("hog: epsilon %g not positive and finite", c.Epsilon)
	}
	switch c.Norm {
	case L2Hys, L2, L1Sqrt:
	default:
		return fmt.Errorf("hog: unknown norm %v", c.Norm)
	}
	return nil
}

// BlockLen returns the length of one normalized block vector
// (BlockCells^2 * Bins; 36 for the paper's parameters).
func (c Config) BlockLen() int { return c.BlockCells * c.BlockCells * c.Bins }

// WindowCells returns the window size in cells for a pixel window of
// w x h pixels (truncating partial cells).
func (c Config) WindowCells(w, h int) (cx, cy int) {
	return w / c.CellSize, h / c.CellSize
}

// WindowBlocks returns the number of blocks spanned by a window of
// wCellsX x wCellsY cells under the configured layout.
func (c Config) WindowBlocks(wCellsX, wCellsY int) (bx, by int) {
	switch c.Layout {
	case LayoutOverlap:
		bx = wCellsX - c.BlockCells + 1
		by = wCellsY - c.BlockCells + 1
	case LayoutPerCell:
		bx, by = wCellsX, wCellsY
	}
	if bx < 0 {
		bx = 0
	}
	if by < 0 {
		by = 0
	}
	return bx, by
}

// DescriptorLen returns the length of the descriptor for a w x h pixel
// window (3780 for 64x128 overlap layout, 4608 for per-cell layout).
func (c Config) DescriptorLen(w, h int) int {
	cx, cy := c.WindowCells(w, h)
	bx, by := c.WindowBlocks(cx, cy)
	return bx * by * c.BlockLen()
}

// CellGrid holds the raw (un-normalized) per-cell orientation histograms of
// a frame: CellsX x CellsY cells, Bins values per cell, row-major.
type CellGrid struct {
	CellsX, CellsY int
	Bins           int
	Hist           []float64
}

// At returns the histogram slice of cell (cx, cy). The returned slice
// aliases the grid.
func (g *CellGrid) At(cx, cy int) []float64 {
	i := (cy*g.CellsX + cx) * g.Bins
	return g.Hist[i : i+g.Bins]
}

// ComputeCells computes the dense per-cell gradient orientation histograms
// of img. Pixels in partial cells at the right/bottom edges are ignored,
// matching the streaming hardware. The image must be at least one cell in
// each dimension.
//
// This entry point runs the fused tangent-threshold fast path (see fast.go)
// serially and returns a freshly allocated, caller-owned grid; temporaries
// are recycled through an internal pool. For an allocation-free steady
// state or banded parallelism use ComputeCellsInto with a Scratch.
// ReferenceComputeCells retains the original Atan2/Hypot implementation as
// the numerical reference.
func ComputeCells(img *imgproc.Gray, cfg Config) (*CellGrid, error) {
	cellsX, cellsY, err := checkCells(img, cfg)
	if err != nil {
		return nil, err
	}
	grid := &CellGrid{
		CellsX: cellsX,
		CellsY: cellsY,
		Bins:   cfg.Bins,
		Hist:   make([]float64, cellsX*cellsY*cfg.Bins),
	}
	s := scratchPool.Get().(*Scratch)
	err = computeCellsImpl(context.Background(), img, cfg, grid, s, 1)
	scratchPool.Put(s)
	if err != nil {
		return nil, err
	}
	return grid, nil
}
