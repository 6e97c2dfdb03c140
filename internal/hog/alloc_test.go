package hog

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/imgproc"
	"repro/internal/obs"
)

// TestFrontEndAllocs pins the steady-state allocation count of the fused
// front end at zero: once a Scratch has served one frame of a given shape,
// further frames must not allocate at all — not in the luminance pass, the
// histogramming, or the block normalization. A regression here silently
// reintroduces per-frame garbage on the detection hot path.
func TestFrontEndAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img := imgproc.NewGray(320, 240)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"gamma", func() Config { c := DefaultConfig(); c.SqrtGamma = true; return c }()},
		{"interp", func() Config { c := DefaultConfig(); c.InterpolateCells = true; return c }()},
		{"overlap", func() Config { c := DefaultConfig(); c.Layout = LayoutOverlap; return c }()},
	} {
		t.Run(tc.name+"/cells", func(t *testing.T) {
			s := NewScratch()
			if _, err := ComputeCellsInto(context.Background(), img, tc.cfg, s, 1); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() {
				if _, err := ComputeCellsInto(context.Background(), img, tc.cfg, s, 1); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("ComputeCellsInto: %v allocs/op in steady state, want 0", n)
			}
		})
		t.Run(tc.name+"/full", func(t *testing.T) {
			s := NewScratch()
			if _, err := ComputeInto(context.Background(), img, tc.cfg, s, 1); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() {
				if _, err := ComputeInto(context.Background(), img, tc.cfg, s, 1); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("ComputeInto: %v allocs/op in steady state, want 0", n)
			}
		})
	}
	// The zero-allocation contract must survive metrics being switched on:
	// stage recording is atomic adds into preallocated histograms.
	t.Run("metrics-on", func(t *testing.T) {
		s := NewScratch()
		s.Metrics = obs.NewDetectRecorder(obs.NewMetrics())
		cfg := DefaultConfig()
		if _, err := ComputeInto(context.Background(), img, cfg, s, 1); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			s.Metrics.BeginFrame()
			if _, err := ComputeInto(context.Background(), img, cfg, s, 1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ComputeInto with metrics: %v allocs/op in steady state, want 0", n)
		}
		if got := s.Metrics.Metrics().Stage[obs.StageHOGCells].Snapshot().Count; got == 0 {
			t.Error("metrics enabled but no hog_cells observations recorded")
		}
	})
}
