package hog

// StagePlan is the kernel-side stage schedule of the calibrated
// early-rejection cascade: which window block row each stage evaluates and
// the per-stage partial-score floors fitted on training positives. Plans
// are built by the detector layer from svm.Cascade tables (hog cannot
// import svm) and are immutable once constructed, so one plan is shared by
// every scan worker.
type StagePlan struct {
	// Order[k] is the window block row stage k evaluates; a permutation of
	// 0..rows-1 ranked by descending per-row weight mass.
	Order []int32
	// Calib holds the per-stage partial-score floors (soft cascade): a
	// window whose stage-order partial falls below Calib[k] after stage k
	// is rejected. len(Calib) == len(Order).
	Calib []float64
}

// Valid reports whether the plan matches a window of wBlocksY block rows.
func (p *StagePlan) Valid(wBlocksY int) bool {
	return p != nil && len(p.Order) == wBlocksY && len(p.Calib) == wBlocksY
}

// ScoreWindowStaged is the cascade variant of ScoreWindow: it evaluates the
// window's block rows in plan order and rejects the window as soon as the
// stage-order partial score drops below the stage's calibrated floor.
//
// Each stage's row dot product is the same dotRow call the dense scan
// makes, stored into rowDots (caller scratch, len >= wBlocksY, indexed by
// raster row). On full evaluation the score is re-reduced from rowDots in
// raster order — the identical float addition sequence as ScoreWindow — so
// accepted windows score bit-identically to the dense scan.
//
// Returns:
//   - score: the exact window score if accepted; 0 if rejected.
//   - rowsEval: block rows actually evaluated (1..wBlocksY).
//   - accepted: every stage was evaluated; score is exact and the caller
//     applies its usual threshold test.
//   - ok: geometry and plan matched (as ScoreWindow's bool).
func (fm *FeatureMap) ScoreWindowStaged(w []float64, bx, by, wBlocksX, wBlocksY int,
	plan *StagePlan, rowDots []float64) (score float64, rowsEval int, accepted, ok bool) {
	if bx < 0 || by < 0 || wBlocksX < 1 || wBlocksY < 1 ||
		bx+wBlocksX > fm.BlocksX || by+wBlocksY > fm.BlocksY {
		return 0, 0, false, false
	}
	rowLen := wBlocksX * fm.BlockLen
	if len(w) != wBlocksY*rowLen || !plan.Valid(wBlocksY) || len(rowDots) < wBlocksY {
		return 0, 0, false, false
	}
	var partial float64
	for k, r := range plan.Order {
		row := fm.Feat[((by+int(r))*fm.BlocksX+bx)*fm.BlockLen:]
		d := dotRow(w[int(r)*rowLen:(int(r)+1)*rowLen], row[:rowLen])
		rowDots[r] = d
		partial += d
		if partial < plan.Calib[k] {
			return 0, k + 1, false, true
		}
	}
	var s float64
	for y := 0; y < wBlocksY; y++ {
		s += rowDots[y]
	}
	return s, wBlocksY, true, true
}
