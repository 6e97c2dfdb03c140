package core

import (
	"math"

	"repro/internal/geom"
)

// RegionSet is the mutable region-of-interest holder behind
// Config.Regions: a set of frame-pixel rectangles that restricts the
// sliding-window scan. While the set is active, a window is scanned if and
// only if its center lies inside one of the rectangles (mapped through the
// pyramid geometry of each level); while inactive, the detector scans
// dense. The center rule makes the restricted scan an exact filter of the
// dense scan — the ROI detections are precisely the dense detections whose
// window center falls in a region, in the same raster order — which is
// what the differential tests pin.
//
// Like an Arena, a RegionSet is shared by every detector built from the
// same config (the streaming runtime hands one to all its degradation
// rungs) and holds reusable buffers: the rectangle copy made by Set and
// the per-level anchor spans computed each frame all live here, so the
// restricted scan path stays inside the detect allocation budget
// (TestDetectAllocsROI).
//
// A RegionSet serves one in-flight frame at a time: Set and Clear must not
// run concurrently with a Detect using the same set, and two frames must
// not scan under one set concurrently. The streaming runtime satisfies
// this by construction (its scan loop plans regions and scans strictly in
// sequence); standalone users drive Set/Detect from one goroutine.
type RegionSet struct {
	active bool
	rects  []geom.Rect
	// Per-frame scratch, all reused across frames: spans holds every
	// level's disjoint anchor spans (levels view subslices of it), cand
	// the per-rect candidate spans of the level in progress, ys and xs the
	// sweep boundaries of the disjoint decomposition.
	spans []anchorSpan
	cand  []anchorSpan
	ys    []int
	xs    []int
}

// NewRegionSet returns an inactive region set (detectors scan dense).
func NewRegionSet() *RegionSet { return &RegionSet{} }

// Set activates the restriction with a copy of rects, reusing the internal
// buffer. An empty slice is a legitimate active set: nothing is scanned
// (no live tracks means no windows can match until the next full scan).
func (rs *RegionSet) Set(rects []geom.Rect) {
	rs.rects = append(rs.rects[:0], rects...)
	rs.active = true
}

// Clear deactivates the restriction: detectors scan dense again.
func (rs *RegionSet) Clear() {
	rs.active = false
	rs.rects = rs.rects[:0]
}

// Active reports whether the restriction is in effect.
func (rs *RegionSet) Active() bool { return rs != nil && rs.active }

// Rects returns the active rectangles (a view of the internal buffer,
// valid until the next Set or Clear; nil when inactive).
func (rs *RegionSet) Rects() []geom.Rect {
	if rs == nil || !rs.active {
		return nil
	}
	return rs.rects
}

// anchorSpan is one contiguous rectangle of window anchors of one pyramid
// level, in block coordinates: anchors (bx, by) with bx in [bx0, bx1) and
// by in [by0, by1). A level's spans are pairwise disjoint and, among spans
// sharing a block row, ordered by ascending bx0, so scanning a row's spans
// left to right visits each qualifying anchor exactly once in strictly
// ascending bx — the same raster order a dense scan produces, which keeps
// restricted detections deterministic at every worker count.
type anchorSpan struct {
	bx0, bx1, by0, by1 int
}

// applyRegions maps the active region set into per-level anchor spans,
// attaching them to the levels about to be scanned. With no active set the
// levels keep their nil spans (dense scan). Span storage is the set's
// reusable scratch, pre-grown to the worst case of the disjoint
// decomposition so the per-level subslices stay valid while later levels
// append.
func (d *Detector) applyRegions(levels []pyrLevel) {
	rs := d.cfg.Regions
	if rs == nil || !rs.active {
		return
	}
	wbx, wby := d.cfg.windowBlocks()
	cell := d.cfg.HOG.CellSize
	n := len(rs.rects)
	// disjointSpans emits at most one span per (y-strip, rect) pair:
	// <= (2n-1) strips x n intervals per level.
	perLevel := n * (2*n - 1)
	if perLevel < 1 {
		perLevel = 1 // keep the scratch non-nil: empty-but-active skips levels
	}
	if need := len(levels) * perLevel; cap(rs.spans) < need {
		rs.spans = make([]anchorSpan, 0, need)
	}
	buf := rs.spans[:0]
	for i := range levels {
		l := &levels[i]
		nx := l.fm.BlocksX - wbx + 1
		ny := l.fm.BlocksY - wby + 1
		start := len(buf)
		if nx > 0 && ny > 0 {
			cand := rs.cand[:0]
			for _, r := range rs.rects {
				if sp, ok := regionAnchorSpan(r, l.sx, l.sy, cell, d.cfg.WindowW, d.cfg.WindowH, nx, ny); ok {
					cand = append(cand, sp)
				}
			}
			rs.cand = cand
			buf = rs.disjointSpans(buf, cand)
		}
		l.spans = buf[start:]
	}
	rs.spans = buf[:0]
}

// regionAnchorSpan maps one frame-pixel region into the window-anchor span
// of a level with per-axis scales sx, sy: the anchors whose window center
// lands inside the region after outward-rounded projection into level
// pixels. ok is false when no anchor qualifies (the region is off-level or
// falls between anchor centers).
func regionAnchorSpan(r geom.Rect, sx, sy float64, cell, winW, winH, nx, ny int) (anchorSpan, bool) {
	// Region corners in level pixels, rounded outward so every frame pixel
	// of the region stays covered.
	lx0 := int(math.Floor(float64(r.Min.X) / sx))
	ly0 := int(math.Floor(float64(r.Min.Y) / sy))
	lx1 := int(math.Ceil(float64(r.Max.X) / sx))
	ly1 := int(math.Ceil(float64(r.Max.Y) / sy))
	// Anchor (bx, by) has its window center at (bx*cell + winW/2,
	// by*cell + winH/2) level pixels; solve lx0 <= center < lx1 for bx.
	sp := anchorSpan{
		bx0: ceilDiv(lx0-winW/2, cell),
		by0: ceilDiv(ly0-winH/2, cell),
		bx1: floorDiv(lx1-1-winW/2, cell) + 1,
		by1: floorDiv(ly1-1-winH/2, cell) + 1,
	}
	if sp.bx0 < 0 {
		sp.bx0 = 0
	}
	if sp.by0 < 0 {
		sp.by0 = 0
	}
	if sp.bx1 > nx {
		sp.bx1 = nx
	}
	if sp.by1 > ny {
		sp.by1 = ny
	}
	if sp.bx0 >= sp.bx1 || sp.by0 >= sp.by1 {
		return anchorSpan{}, false
	}
	return sp, true
}

// disjointSpans appends to dst a pairwise-disjoint span set covering
// exactly the union of the candidate spans: a sweep over the candidates'
// by-boundaries partitions the rows into strips, and within each strip the
// active bx-intervals are merged one-dimensionally (exactly). Unlike a
// bounding-box merge this never covers an anchor no candidate covers, so
// the restricted scan stays an exact filter of the dense scan even when
// regions overlap. Within a strip the intervals come out in ascending bx
// order, and spans of different strips never share a row — the invariant
// scanAnchors needs for raster-order output. All scratch lives on the
// receiver; nothing allocates once the buffers have grown.
func (rs *RegionSet) disjointSpans(dst, cand []anchorSpan) []anchorSpan {
	if len(cand) == 0 {
		return dst
	}
	ys := rs.ys[:0]
	for _, sp := range cand {
		ys = append(ys, sp.by0, sp.by1)
	}
	insertionSortInts(ys)
	ys = dedupeInts(ys)
	rs.ys = ys
	for k := 0; k+1 < len(ys); k++ {
		y0, y1 := ys[k], ys[k+1]
		// bx-intervals of candidates active in this strip, as flat
		// (x0, x1) pairs. A candidate either spans the whole strip or
		// misses it entirely (strip edges are candidate edges).
		xs := rs.xs[:0]
		for _, sp := range cand {
			if sp.by0 <= y0 && sp.by1 >= y1 {
				xs = append(xs, sp.bx0, sp.bx1)
			}
		}
		rs.xs = xs
		if len(xs) == 0 {
			continue
		}
		insertionSortPairs(xs)
		// Merge overlapping or touching intervals and emit one span each.
		x0, x1 := xs[0], xs[1]
		for p := 2; p < len(xs); p += 2 {
			if xs[p] <= x1 {
				if xs[p+1] > x1 {
					x1 = xs[p+1]
				}
				continue
			}
			dst = append(dst, anchorSpan{bx0: x0, bx1: x1, by0: y0, by1: y1})
			x0, x1 = xs[p], xs[p+1]
		}
		dst = append(dst, anchorSpan{bx0: x0, bx1: x1, by0: y0, by1: y1})
	}
	return dst
}

// insertionSortInts sorts in place without allocating (sort.Ints's
// interface conversion would put the slice header on the heap each frame).
func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// dedupeInts compacts a sorted slice to unique values.
func dedupeInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// insertionSortPairs sorts flat (x0, x1) pairs by x0 in place.
func insertionSortPairs(s []int) {
	for i := 2; i < len(s); i += 2 {
		for j := i; j > 0 && s[j] < s[j-2]; j -= 2 {
			s[j], s[j-2] = s[j-2], s[j]
			s[j+1], s[j-1] = s[j-1], s[j+1]
		}
	}
}

// floorDiv and ceilDiv are integer division rounding toward -inf / +inf
// (Go's / truncates toward zero, which is wrong for the negative offsets
// that arise near the frame origin). b must be positive.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int { return -floorDiv(-a, b) }
