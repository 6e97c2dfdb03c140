package core

import (
	"slices"

	"repro/internal/eval"
	"repro/internal/geom"
)

// NMS performs greedy non-maximum suppression: detections are visited in
// descending score order and any later detection overlapping a kept one by
// more than iouThresh IoU is discarded. The result is sorted by descending
// score. The input slice is not modified.
func NMS(dets []eval.Detection, iouThresh float64) []eval.Detection {
	if len(dets) == 0 {
		return nil
	}
	sorted := append([]eval.Detection(nil), dets...)
	sortByScore(sorted)
	kept := sorted[:0]
	for _, d := range sorted {
		ok := true
		for _, k := range kept {
			if geom.IoU(d.Box, k.Box) > iouThresh {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, d)
		}
	}
	out := make([]eval.Detection, len(kept))
	copy(out, kept)
	return out
}

// sortByScore orders detections by descending score (stable so equal-score
// detections keep raster order, which keeps runs deterministic). The
// generic sort allocates nothing, unlike sort.SliceStable's reflect swapper.
func sortByScore(dets []eval.Detection) {
	slices.SortStableFunc(dets, func(a, b eval.Detection) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return 0
	})
}
