package svm

import (
	"fmt"
	"math"
	"sort"
)

// Early-rejection cascade scoring (soft cascade, calibrated floors).
//
// A window descriptor is a grid of wBlocksY x wBlocksX normalized HOG
// blocks. The cascade partitions the weight vector into its wBlocksY
// block-row stripes (each a contiguous strided row of the feature map, the
// unit the zero-copy scorer already consumes) and orders them by
// descending weight mass, so the rows that move the score most are
// evaluated first. Calibrate then fits one partial-score floor per stage
// on training positives: a window whose running partial after stage k
// falls below floor k is rejected without touching the remaining rows.
// The rejection is lossy — a positive unlike the calibration set can fall
// below a floor — and MissRate measures that on held-out positives. See
// hog.StagePlan for the kernel-side contract and DESIGN §5h.
type Cascade struct {
	// Rows, Cols, BlockLen describe the window geometry the partition was
	// built for: Rows block rows of Cols blocks of BlockLen features.
	Rows, Cols, BlockLen int
	// Order is the stage schedule: stage k evaluates window block row
	// Order[k]. Rows are ranked by descending RowBound (ties break toward
	// the lower row index). Calibrated floors are stage-indexed, so a
	// model file's calibration is valid only under this exact schedule.
	Order []int32
	// RowBound[r] is row r's weight mass: the sum of the L2 norms of its
	// Cols block-weight sub-vectors, which bounds |row r's dot product|
	// for blocks of unit norm (Cauchy-Schwarz).
	RowBound []float64
	// Calib, when non-nil, holds the per-stage partial-score floors of
	// calibrated (soft-cascade) mode, stage-indexed: a window with
	// partial_k < Calib[k] is rejected. nil until Calibrate is run or a
	// model-file calibration is attached.
	Calib []float64
	// Margin is the safety margin the floors were fitted with.
	Margin float64
}

// maxCascadeRows bounds the stage count; real window geometries are tiny
// (16 rows for the paper's 64x128 window) and the serialized calibration
// shares the limit.
const maxCascadeRows = 4096

// NewCascade partitions m's weight vector for a wBlocksX x wBlocksY block
// window with blockLen features per block, returning the ranked stage
// tables. The model must be finite (NaN/Inf weights are rejected — a
// non-finite mass would make the stage order meaningless) and its length
// must match the window geometry exactly.
func NewCascade(m *Model, wBlocksX, wBlocksY, blockLen int) (*Cascade, error) {
	if m == nil {
		return nil, fmt.Errorf("svm: cascade of nil model")
	}
	if wBlocksX < 1 || wBlocksY < 1 || blockLen < 1 {
		return nil, fmt.Errorf("svm: invalid cascade geometry %dx%d blocks x %d", wBlocksX, wBlocksY, blockLen)
	}
	if wBlocksY > maxCascadeRows {
		return nil, fmt.Errorf("svm: %d cascade stages exceed the %d cap", wBlocksY, maxCascadeRows)
	}
	if want := wBlocksX * wBlocksY * blockLen; len(m.W) != want {
		return nil, fmt.Errorf("svm: model has %d weights, cascade geometry needs %d", len(m.W), want)
	}
	if !isFinite(m.B) {
		return nil, fmt.Errorf("svm: non-finite bias %g", m.B)
	}
	c := &Cascade{
		Rows:     wBlocksY,
		Cols:     wBlocksX,
		BlockLen: blockLen,
		Order:    make([]int32, wBlocksY),
		RowBound: make([]float64, wBlocksY),
	}
	rowLen := wBlocksX * blockLen
	for r := 0; r < wBlocksY; r++ {
		row := m.W[r*rowLen : (r+1)*rowLen]
		var bound float64
		for x := 0; x < wBlocksX; x++ {
			var ss float64
			for _, v := range row[x*blockLen : (x+1)*blockLen] {
				if !isFinite(v) {
					return nil, fmt.Errorf("svm: non-finite weight in window row %d", r)
				}
				ss += v * v
			}
			bound += math.Sqrt(ss)
		}
		// Finite weights can still overflow the squared-norm sums to +Inf;
		// infinite masses would tie and leave the order to the tie-break,
		// so treat it like a non-finite weight.
		if !isFinite(bound) {
			return nil, fmt.Errorf("svm: weight mass of window row %d overflows", r)
		}
		c.RowBound[r] = bound
		c.Order[r] = int32(r)
	}
	// Discriminative mass first: high-mass rows move the partial score
	// most. The tie-break keeps the schedule deterministic.
	sort.SliceStable(c.Order, func(i, j int) bool {
		bi, bj := c.RowBound[c.Order[i]], c.RowBound[c.Order[j]]
		if bi != bj {
			return bi > bj
		}
		return c.Order[i] < c.Order[j]
	})
	return c, nil
}

// StagePartials returns the cumulative partial scores of descriptor x under
// model m after each stage, in stage order: out[k] = sum over stages 0..k of
// the stage's row dot product (bias excluded). Used by calibration and
// tests; not a hot path.
func (c *Cascade) StagePartials(m *Model, x []float64) ([]float64, error) {
	return c.partials(m, x)
}

// Calibrate fits per-stage rejection floors on positive training
// descriptors, soft-cascade style: floor_k is the minimum partial score any
// positive reaches after stage k, minus margin. A window falling below a
// floor is rejected early; by construction no calibration positive is
// (margin > 0 leaves headroom for unseen positives). The floors are stored
// on the cascade and returned for serialization.
func (c *Cascade) Calibrate(m *Model, positives [][]float64, margin float64) ([]float64, error) {
	if len(positives) == 0 {
		return nil, fmt.Errorf("svm: cascade calibration needs at least one positive")
	}
	if !isFinite(margin) || margin < 0 {
		return nil, fmt.Errorf("svm: invalid calibration margin %g", margin)
	}
	floors := make([]float64, c.Rows)
	for i := range floors {
		floors[i] = math.Inf(1)
	}
	for i, x := range positives {
		p, err := c.partials(m, x)
		if err != nil {
			return nil, fmt.Errorf("svm: positive %d: %w", i, err)
		}
		for k, v := range p {
			if v < floors[k] {
				floors[k] = v
			}
		}
	}
	for k := range floors {
		floors[k] -= margin
		if !isFinite(floors[k]) {
			return nil, fmt.Errorf("svm: non-finite calibrated floor at stage %d", k)
		}
	}
	c.Calib = floors
	c.Margin = margin
	return floors, nil
}

// partials computes the cumulative staged partial scores of descriptor x
// under model m (excluding the bias), in stage order.
func (c *Cascade) partials(m *Model, x []float64) ([]float64, error) {
	rowLen := c.Cols * c.BlockLen
	if len(x) != c.Rows*rowLen || len(m.W) != c.Rows*rowLen {
		return nil, fmt.Errorf("svm: descriptor/model length %d/%d, cascade needs %d", len(x), len(m.W), c.Rows*rowLen)
	}
	out := make([]float64, c.Rows)
	var partial float64
	for k, r := range c.Order {
		row := int(r)
		partial += dot(m.W[row*rowLen:(row+1)*rowLen], x[row*rowLen:(row+1)*rowLen])
		out[k] = partial
	}
	return out, nil
}

// MissRate reports the fraction of the given positive descriptors the
// calibrated floors would reject early — the measured miss bound of
// calibrated mode on a held-out set. It is 0 for a cascade with no floors
// attached.
func (c *Cascade) MissRate(m *Model, positives [][]float64) (float64, error) {
	if c.Calib == nil {
		return 0, nil
	}
	if len(positives) == 0 {
		return 0, nil
	}
	missed := 0
	for i, x := range positives {
		p, err := c.partials(m, x)
		if err != nil {
			return 0, fmt.Errorf("svm: positive %d: %w", i, err)
		}
		for k, v := range p {
			if v < c.Calib[k] {
				missed++
				break
			}
		}
	}
	return float64(missed) / float64(len(positives)), nil
}

// AttachCalibration validates a deserialized calibration (svm model-file
// `cascade` section) against the partition geometry and installs it.
func (c *Cascade) AttachCalibration(cal *CascadeCalib) error {
	if cal == nil {
		return fmt.Errorf("svm: nil cascade calibration")
	}
	if cal.Stages != c.Rows || len(cal.Thresholds) != c.Rows {
		return fmt.Errorf("svm: calibration has %d stages (%d thresholds), cascade has %d rows",
			cal.Stages, len(cal.Thresholds), c.Rows)
	}
	c.Calib = append([]float64(nil), cal.Thresholds...)
	c.Margin = cal.Margin
	return nil
}

// CascadeCalib is the serializable soft-cascade calibration of a model:
// per-stage partial-score floors in stage-rank order. The stage schedule
// itself is not stored — it is a pure deterministic function of the weight
// vector and the window geometry (NewCascade), so the floors stay valid for
// any reader that derives the same partition.
type CascadeCalib struct {
	Stages     int       // window block rows the floors were fitted for
	Margin     float64   // safety margin subtracted from the fitted minima
	Thresholds []float64 // per-stage floors, stage-rank order (len = Stages)
}

// Validate reports whether the calibration is structurally usable.
func (cal *CascadeCalib) Validate() error {
	if cal.Stages < 1 || cal.Stages > maxCascadeRows {
		return fmt.Errorf("svm: implausible cascade stage count %d", cal.Stages)
	}
	if len(cal.Thresholds) != cal.Stages {
		return fmt.Errorf("svm: cascade has %d thresholds for %d stages", len(cal.Thresholds), cal.Stages)
	}
	if !isFinite(cal.Margin) || cal.Margin < 0 {
		return fmt.Errorf("svm: invalid cascade margin %g", cal.Margin)
	}
	for i, t := range cal.Thresholds {
		if !isFinite(t) {
			return fmt.Errorf("svm: non-finite cascade threshold %d", i)
		}
	}
	return nil
}

// Clone returns a deep copy of cal.
func (cal *CascadeCalib) Clone() *CascadeCalib {
	if cal == nil {
		return nil
	}
	out := *cal
	out.Thresholds = append([]float64(nil), cal.Thresholds...)
	return &out
}
