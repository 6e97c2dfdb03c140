package hog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/imgproc"
)

// TestComputeIntoPreCancelled pins the front end's cancellation: with a
// ctx that is already cancelled, ComputeCellsInto and ComputeInto return
// an error wrapping context.Canceled before any luminance run, cell band or
// block row runs, at workers 1 and 2. The scratch still holds the previous
// frame's luminance, cells and features, bit for bit.
func TestComputeIntoPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	frame := func() *imgproc.Gray {
		g := imgproc.NewGray(96, 80)
		for i := range g.Pix {
			g.Pix[i] = uint8(rng.Intn(256))
		}
		return g
	}
	prev, next := frame(), frame()
	cfg := DefaultConfig()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		for _, stage := range []string{"cells", "features"} {
			label := fmt.Sprintf("%s workers=%d", stage, workers)
			s := NewScratch()
			if _, err := ComputeInto(context.Background(), prev, cfg, s, workers); err != nil {
				t.Fatal(err)
			}
			lum, hist, feat := slices.Clone(s.lum), slices.Clone(s.grid.Hist), slices.Clone(s.fm.Feat)
			var err error
			if stage == "cells" {
				_, err = ComputeCellsInto(cancelled, next, cfg, s, workers)
			} else {
				_, err = ComputeInto(cancelled, next, cfg, s, workers)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", label, err)
			}
			sameBits(t, label+" luminance", lum, s.lum)
			sameBits(t, label+" cells", hist, s.grid.Hist)
			sameBits(t, label+" features", feat, s.fm.Feat)
		}
	}
}

// TestShortPixPanicsInCaller: an image whose pixel buffer is shorter than
// its header claims panics on the calling goroutine at every worker count,
// also when the buffer's capacity would cover the claimed size (a slice
// cut short within a larger array), where reslicing alone would read the
// stale bytes past len.
func TestShortPixPanicsInCaller(t *testing.T) {
	full := imgproc.NewGray(64, 128)
	short := &imgproc.Gray{W: full.W, H: full.H, Pix: full.Pix[:len(full.Pix)-1]}
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: short pixel buffer did not panic", workers)
				}
			}()
			_, err := ComputeInto(context.Background(), short, DefaultConfig(), NewScratch(), workers)
			t.Errorf("workers=%d: short pixel buffer returned (err %v)", workers, err)
		}()
	}
}
