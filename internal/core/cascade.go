package core

import (
	"fmt"

	"repro/internal/hog"
	"repro/internal/obs"
	"repro/internal/svm"
)

// CascadeMode selects the early-rejection strategy of the window scan.
type CascadeMode int

const (
	// CascadeOff scans every window dense (the pre-cascade behaviour).
	CascadeOff CascadeMode = iota
	// CascadeCalibrated evaluates windows stage by stage and rejects below
	// per-stage floors fitted on training positives (soft cascade, pdtrain
	// -cascade-calibrate): lossy, with a measured, reported miss bound.
	// Accepted windows score bit-identically to CascadeOff. Requires a
	// model carrying a calibration with one floor per window block row.
	CascadeCalibrated
)

// String implements fmt.Stringer.
func (m CascadeMode) String() string {
	switch m {
	case CascadeOff:
		return "off"
	case CascadeCalibrated:
		return "calibrated"
	}
	return fmt.Sprintf("CascadeMode(%d)", int(m))
}

// buildStagePlan derives the kernel-side stage schedule for the detector's
// model and window geometry, validating the mode's requirements. Returns
// nil for CascadeOff.
func buildStagePlan(model *svm.Model, cfg Config) (*hog.StagePlan, error) {
	switch cfg.Cascade {
	case CascadeOff:
		return nil, nil
	case CascadeCalibrated:
	default:
		return nil, fmt.Errorf("core: unknown cascade mode %v", cfg.Cascade)
	}
	if model.Calib == nil {
		return nil, fmt.Errorf("core: calibrated cascade needs a model with a cascade calibration (pdtrain -cascade-calibrate)")
	}
	wbx, wby := cfg.windowBlocks()
	casc, err := svm.NewCascade(model, wbx, wby, cfg.HOG.BlockLen())
	if err != nil {
		return nil, err
	}
	if err := casc.AttachCalibration(model.Calib); err != nil {
		return nil, err
	}
	return &hog.StagePlan{Order: casc.Order, Calib: casc.Calib}, nil
}

// cascadeTally is the per-shard cascade counter scratch: the scan loop
// bumps plain stack integers and folds them into the shared atomic
// registry once per shard, so the per-window path has no atomic traffic.
type cascadeTally struct {
	windows, accepted, rows uint64
	stageRejects            [obs.CascadeStages]uint64
}

// fold adds the tally to the registry (blocks = rows * window block width).
func (t *cascadeTally) fold(m *obs.Metrics, wbx int) {
	if m == nil || t.windows == 0 {
		return
	}
	m.CascadeWindows.Add(t.windows)
	m.CascadeAccepted.Add(t.accepted)
	m.CascadeBlocks.Add(t.rows * uint64(wbx))
	for i := range t.stageRejects {
		if t.stageRejects[i] != 0 {
			m.CascadeStageRejects[i].Add(t.stageRejects[i])
		}
	}
}

// reject records an early rejection after rowsEval stages.
func (t *cascadeTally) reject(rowsEval int) {
	k := rowsEval - 1
	if k >= obs.CascadeStages {
		k = obs.CascadeStages - 1
	}
	if k >= 0 {
		t.stageRejects[k]++
	}
}
