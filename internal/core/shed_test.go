package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// TestSkipFinestShedsLevels pins SkipFinest at 0..3 in every pyramid mode
// against the shedding it replaces (build every level, then drop the
// finest from the scan): the raw detections must be bit-identical and
// LevelProbe must see the same absolute level indices. The direct build
// must resample only the levels it keeps; the chained build still
// resamples every level it chains through. The image and octave pyramids
// must extract the full-frame HOG only if a kept level reads it: in octave
// mode that is checked on both sides of the last octave-0 level too.
func TestSkipFinestShedsLevels(t *testing.T) {
	det, _ := testDetector(t)
	frame := goldenSequence(t).Frames[0]
	ctx := context.Background()
	for _, mode := range []PyramidMode{ImagePyramid, FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed, OctavePyramid} {
		base := DefaultConfig()
		base.Mode = mode
		base.Threshold = -0.5 // plenty of raw windows on every level
		full, err := NewDetector(det.Model(), base)
		if err != nil {
			t.Fatal(err)
		}
		skips := []int{0, 1, 2, 3}
		var plan []octaveLevel // the extracted-level ladder, nil in the feature modes
		if mode == ImagePyramid || mode == OctavePyramid {
			plan = full.planLevels(frame.W, frame.H, nil)
		}
		if mode == OctavePyramid {
			n0 := 0
			for _, l := range plan {
				if l.octave == 0 {
					n0++
				}
			}
			skips = append(skips, n0-1, n0) // the last level reading the base map, then none
		}
		for _, skip := range skips {
			label := fmt.Sprintf("%v skip=%d", mode, skip)
			// The old shedding: every level built, the finest dropped.
			fs, err := full.buildLevels(ctx, frame)
			if err != nil {
				t.Fatal(err)
			}
			levels := len(fs.levels)
			fs.levels = fs.levels[min(skip, levels-1):]
			var wantProbe []int
			for _, l := range fs.levels {
				wantProbe = append(wantProbe, l.index)
			}
			want, err := full.scanLevels(ctx, fs)
			if err != nil {
				t.Fatal(err)
			}
			sortByScore(want)
			full.arena.put(fs)

			cfg := base
			cfg.SkipFinest = skip
			cfg.Scale.LevelTimer = new(obs.Histogram)
			cfg.Metrics = obs.NewDetectRecorder(obs.NewMetrics())
			var gotProbe []int
			cfg.LevelProbe = func(_ context.Context, level int) error {
				gotProbe = append(gotProbe, level)
				return nil
			}
			d, err := NewDetector(det.Model(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.DetectRaw(frame)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s: no raw detections to compare", label)
			}
			sameDetections(t, label, want, got)
			if fmt.Sprint(gotProbe) != fmt.Sprint(wantProbe) {
				t.Errorf("%s: probed levels %v, want %v", label, gotProbe, wantProbe)
			}
			wantBase := uint64(1)
			if len(plan) > 0 && plan[min(skip, len(plan)-1)].octave > 0 {
				wantBase = 0
			}
			if n := cfg.Metrics.Metrics().Stage[obs.StageHOGCells].Snapshot().Count; n != wantBase {
				t.Errorf("%s: %d full-frame HOG extractions, want %d", label, n, wantBase)
			}
			var resampled int
			switch mode {
			case FeaturePyramid:
				resampled = levels - max(min(skip, levels-1), 1)
			case FeaturePyramidChained:
				resampled = levels - 1
			default:
				continue // timed elsewhere: the fixed scaler per level, octaves per resample
			}
			if n := cfg.Scale.LevelTimer.Snapshot().Count; n != uint64(resampled) {
				t.Errorf("%s: %d level timings, want %d resampled levels", label, n, resampled)
			}
		}
	}
}
