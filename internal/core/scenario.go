package core

import (
	"fmt"

	"repro/internal/featpyr"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/svm"
)

// This file implements the two single-window test configurations of the
// paper's Figure 3, used to produce Table 1 and Figure 4:
//
//	(a) conventional: resize the window image to the 64x128 training size,
//	    extract HOG, classify;
//	(b) proposed: extract HOG at the window's native size, down-sample the
//	    normalized feature map to the training block grid, classify.

// ClassifyImageScaled scores a window image of any size with scenario (a):
// image resizing before feature extraction.
func ClassifyImageScaled(model *svm.Model, img *imgproc.Gray, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	resized := img
	if img.W != cfg.WindowW || img.H != cfg.WindowH {
		resized = imgproc.Resize(img, cfg.WindowW, cfg.WindowH, cfg.Interp)
	}
	d, err := hog.Descriptor(resized, cfg.HOG)
	if err != nil {
		return 0, err
	}
	if len(d) != len(model.W) {
		return 0, fmt.Errorf("core: descriptor length %d != model %d", len(d), len(model.W))
	}
	return model.Score(d), nil
}

// ClassifyFeatureScaled scores a window image of any size with scenario
// (b): HOG extraction at native size, then feature-map down-sampling to the
// training window's block grid (the paper's proposed method).
func ClassifyFeatureScaled(model *svm.Model, img *imgproc.Gray, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	fm, err := hog.Compute(img, cfg.HOG)
	if err != nil {
		return 0, err
	}
	wbx, wby := cfg.windowBlocks()
	scaled := fm
	if img.W != cfg.WindowW || img.H != cfg.WindowH {
		// Resample using the true content ratio (window pixels over
		// training-window pixels), not the integer cell-grid ratio: a
		// 70-px-wide window has 8.75 cells of content even though only 8
		// whole cells were binned.
		rx := float64(img.W) / float64(cfg.WindowW)
		ry := float64(img.H) / float64(cfg.WindowH)
		scaled, err = featpyr.ScaleMapRatio(fm, wbx, wby, rx, ry, cfg.Scale)
		if err != nil {
			return 0, err
		}
	}
	d := scaled.Window(0, 0, wbx, wby)
	if d == nil {
		return 0, fmt.Errorf("core: window extraction failed on %dx%d block map", scaled.BlocksX, scaled.BlocksY)
	}
	if len(d) != len(model.W) {
		return 0, fmt.Errorf("core: descriptor length %d != model %d", len(d), len(model.W))
	}
	return model.Score(d), nil
}

// ClassifyFeatureScaledFixed is scenario (b) computed with the bit-accurate
// shift-and-add fixed-point scaler (the hardware datapath).
func ClassifyFeatureScaledFixed(model *svm.Model, img *imgproc.Gray, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	fm, err := hog.Compute(img, cfg.HOG)
	if err != nil {
		return 0, err
	}
	wbx, wby := cfg.windowBlocks()
	scaled := fm
	if img.W != cfg.WindowW || img.H != cfg.WindowH {
		rx := float64(img.W) / float64(cfg.WindowW)
		ry := float64(img.H) / float64(cfg.WindowH)
		scaled, _, err = cfg.Fixed.ScaleMapRatio(fm, wbx, wby, rx, ry) // a nil Fixed is the default scaler
		if err != nil {
			return 0, err
		}
	}
	d := scaled.Window(0, 0, wbx, wby)
	if d == nil {
		return 0, fmt.Errorf("core: window extraction failed on %dx%d block map", scaled.BlocksX, scaled.BlocksY)
	}
	return model.Score(d), nil
}
