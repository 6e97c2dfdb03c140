package hog

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/imgproc"
	"repro/internal/svm"
)

// stagedSetup builds a real normalized feature map, a random weight vector,
// and the stage plan the detector layer would derive for it (svm ranks the
// rows; hog only consumes the tables). The plan's floors are bottomless,
// so it never rejects until a test installs its own.
func stagedSetup(t *testing.T, seed int64) (fm *FeatureMap, w []float64, plan *StagePlan, wbx, wby int) {
	t.Helper()
	cfg := DefaultConfig()
	img := imgproc.NewGray(200, 240)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	var err error
	fm, err = Compute(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wbx, wby = cfg.WindowBlocks(cfg.WindowCells(64, 128))
	w = make([]float64, wbx*wby*fm.BlockLen)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	casc, err := svm.NewCascade(&svm.Model{W: w}, wbx, wby, fm.BlockLen)
	if err != nil {
		t.Fatal(err)
	}
	plan = &StagePlan{Order: casc.Order, Calib: constFloors(wby, -math.MaxFloat64)}
	return fm, w, plan, wbx, wby
}

// constFloors returns n stage floors all equal to v.
func constFloors(n int, v float64) []float64 {
	floors := make([]float64, n)
	for i := range floors {
		floors[i] = v
	}
	return floors
}

// TestScoreWindowStagedLossless is the kernel-level contract of the
// calibrated cascade: a window is rejected exactly at the first stage whose
// stage-order partial falls below that stage's floor, and every accepted
// window scores bit-identically to the dense scan.
func TestScoreWindowStagedLossless(t *testing.T) {
	fm, w, plan, wbx, wby := stagedSetup(t, 31)
	rowLen := wbx * fm.BlockLen

	// Reference stage-order partials of every window, from the same dotRow
	// sequence the kernel runs; floors at each stage's 10th percentile
	// spread the rejections over many stages.
	var partials [][]float64
	for by := 0; by+wby <= fm.BlocksY; by++ {
		for bx := 0; bx+wbx <= fm.BlocksX; bx++ {
			p := make([]float64, wby)
			var partial float64
			for k, r := range plan.Order {
				row := fm.Feat[((by+int(r))*fm.BlocksX+bx)*fm.BlockLen:]
				partial += dotRow(w[int(r)*rowLen:(int(r)+1)*rowLen], row[:rowLen])
				p[k] = partial
			}
			partials = append(partials, p)
		}
	}
	plan.Calib = make([]float64, wby)
	for k := range plan.Calib {
		col := make([]float64, len(partials))
		for i, p := range partials {
			col[i] = p[k]
		}
		sort.Float64s(col)
		plan.Calib[k] = col[len(col)/10]
	}

	rowDots := make([]float64, wby)
	accepts := 0
	rejectStages := make(map[int]bool)
	i := 0
	for by := 0; by+wby <= fm.BlocksY; by++ {
		for bx := 0; bx+wbx <= fm.BlocksX; bx++ {
			wantRows, wantAccept := wby, true
			for k, v := range partials[i] {
				if v < plan.Calib[k] {
					wantRows, wantAccept = k+1, false
					break
				}
			}
			i++
			score, rowsEval, accepted, ok := fm.ScoreWindowStaged(w, bx, by, wbx, wby, plan, rowDots)
			if !ok {
				t.Fatalf("staged score at (%d,%d) rejected the geometry", bx, by)
			}
			if rowsEval != wantRows || accepted != wantAccept {
				t.Fatalf("anchor (%d,%d): rowsEval %d accepted %v, want %d accepted %v",
					bx, by, rowsEval, accepted, wantRows, wantAccept)
			}
			if !accepted {
				rejectStages[rowsEval] = true
				continue
			}
			accepts++
			dense, _ := fm.ScoreWindow(w, bx, by, wbx, wby)
			if math.Float64bits(score) != math.Float64bits(dense) {
				t.Fatalf("anchor (%d,%d): staged %v != dense %v (bits differ)", bx, by, score, dense)
			}
		}
	}
	if accepts == 0 || len(rejectStages) < 2 {
		t.Fatalf("degenerate sweep: %d accepts, rejections at stages %v", accepts, rejectStages)
	}
}

// TestScoreWindowStagedCalibrated checks the extreme floors: an
// unreachable stage-one floor rejects every window after a single row, and
// a bottomless floor never fires, leaving the dense score bit for bit.
func TestScoreWindowStagedCalibrated(t *testing.T) {
	fm, w, plan, wbx, wby := stagedSetup(t, 33)
	rowDots := make([]float64, wby)

	plan.Calib = constFloors(wby, math.MaxFloat64)
	_, rowsEval, accepted, ok := fm.ScoreWindowStaged(w, 1, 1, wbx, wby, plan, rowDots)
	if !ok || accepted || rowsEval != 1 {
		t.Fatalf("unreachable floor: ok=%v accepted=%v rowsEval=%d", ok, accepted, rowsEval)
	}

	plan.Calib = constFloors(wby, -math.MaxFloat64)
	dense, _ := fm.ScoreWindow(w, 1, 1, wbx, wby)
	score, rowsEval, accepted, ok := fm.ScoreWindowStaged(w, 1, 1, wbx, wby, plan, rowDots)
	if !ok || !accepted || rowsEval != wby {
		t.Fatalf("bottomless floor: ok=%v accepted=%v rowsEval=%d", ok, accepted, rowsEval)
	}
	if math.Float64bits(score) != math.Float64bits(dense) {
		t.Fatalf("calibrated accept not bit-identical: %v vs %v", score, dense)
	}
}

// TestScoreWindowStagedRejectsBadInput mirrors TestScoreWindowRejectsBadInput
// for the staged kernel: bad geometry, malformed plans, and short scratch all
// return ok=false without touching the map.
func TestScoreWindowStagedRejectsBadInput(t *testing.T) {
	fm, w, plan, wbx, wby := stagedSetup(t, 34)
	rowDots := make([]float64, wby)
	if _, _, _, ok := fm.ScoreWindowStaged(w, 0, 0, wbx, wby, plan, rowDots); !ok {
		t.Fatal("valid staged call rejected")
	}
	for _, bad := range [][4]int{
		{-1, 0, wbx, wby},
		{0, -1, wbx, wby},
		{fm.BlocksX - wbx + 1, 0, wbx, wby},
		{0, fm.BlocksY - wby + 1, wbx, wby},
		{0, 0, 0, wby},
		{0, 0, wbx, 0},
	} {
		if _, _, _, ok := fm.ScoreWindowStaged(w, bad[0], bad[1], bad[2], bad[3], plan, rowDots); ok {
			t.Errorf("geometry %v accepted", bad)
		}
	}
	if _, _, _, ok := fm.ScoreWindowStaged(w[:10], 0, 0, wbx, wby, plan, rowDots); ok {
		t.Error("short weight vector accepted")
	}
	if _, _, _, ok := fm.ScoreWindowStaged(w, 0, 0, wbx, wby, nil, rowDots); ok {
		t.Error("nil plan accepted")
	}
	for name, bad := range map[string]*StagePlan{
		"short stage order": {Order: plan.Order[:wby-1], Calib: plan.Calib},
		"short calibration": {Order: plan.Order, Calib: plan.Calib[:wby-1]},
		"no calibration":    {Order: plan.Order},
	} {
		if _, _, _, ok := fm.ScoreWindowStaged(w, 0, 0, wbx, wby, bad, rowDots); ok {
			t.Errorf("%s accepted", name)
		}
	}
	if _, _, _, ok := fm.ScoreWindowStaged(w, 0, 0, wbx, wby, plan, rowDots[:wby-1]); ok {
		t.Error("short rowDots scratch accepted")
	}
}
