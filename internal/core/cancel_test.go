package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/imgproc"
	"repro/internal/rt/faultinject"
	"repro/internal/svm"
)

// cancelModes are the pyramid modes the cancellation contract must hold in.
var cancelModes = []struct {
	name string
	mode PyramidMode
}{
	{"image", ImagePyramid},
	{"feature", FeaturePyramid},
	{"chained", FeaturePyramidChained},
	{"fixed", FeaturePyramidFixed},
	{"octave", OctavePyramid},
}

func cancelDetector(t *testing.T, mode PyramidMode, workers int) (*Detector, *imgproc.Gray) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.ScaleStep = 1.3
	cfg.Workers = workers
	d := constScoreDetector(t, cfg)
	return d, imgproc.NewGray(160, 320)
}

// settleGoroutines polls until the goroutine count drops back to the
// baseline (worker goroutines unwind asynchronously after a cancelled scan
// returns, so a single instantaneous reading would flake).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d running, baseline %d", n, baseline)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDetectRawCtxPreCancelled: a detector handed an already-cancelled
// context must return promptly with the context error at every worker count
// and in every pyramid mode, without leaking scan goroutines.
func TestDetectRawCtxPreCancelled(t *testing.T) {
	for _, m := range cancelModes {
		for _, workers := range []int{1, 2, 4, 8} {
			d, frame := cancelDetector(t, m.mode, workers)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			baseline := runtime.NumGoroutine()
			start := time.Now()
			dets, err := d.DetectRawCtx(ctx, frame)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s/w%d: err = %v, want context.Canceled", m.name, workers, err)
			}
			if dets != nil {
				t.Fatalf("%s/w%d: got %d detections from a cancelled scan", m.name, workers, len(dets))
			}
			if elapsed > 2*time.Second {
				t.Errorf("%s/w%d: cancelled scan took %v", m.name, workers, elapsed)
			}
			settleGoroutines(t, baseline)
		}
	}
}

// TestDetectCtxMidScanCancellation cancels while the scan is in flight (the
// probe blocks on the context, so the cancel always lands mid-frame) and
// asserts the error surfaces and no worker goroutines outlive the call.
func TestDetectCtxMidScanCancellation(t *testing.T) {
	for _, m := range cancelModes {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Mode = m.mode
			cfg.ScaleStep = 1.3
			cfg.Workers = workers
			// Buffered, so the first probe's signal is kept even when it
			// fires before the test goroutine waits for it.
			entered := make(chan struct{}, 1)
			cfg.LevelProbe = func(ctx context.Context, level int) error {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-ctx.Done() // hold the scan until the test cancels
				return ctx.Err()
			}
			d := constScoreDetector(t, cfg)
			frame := imgproc.NewGray(160, 320)

			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := d.DetectCtx(ctx, frame)
				done <- err
			}()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s/w%d: scan never reached the probe", m.name, workers)
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s/w%d: err = %v, want context.Canceled", m.name, workers, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s/w%d: cancelled scan never returned", m.name, workers)
			}
			settleGoroutines(t, baseline)
		}
	}
}

// TestDetectRawDeadlineCutsLongScan: a deadline that expires mid-scan
// surfaces context.DeadlineExceeded rather than hanging.
func TestDetectRawDeadlineCutsLongScan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = FeaturePyramid
	cfg.ScaleStep = 1.3
	cfg.Workers = 2
	cfg.LevelProbe = func(ctx context.Context, level int) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Minute):
			return nil
		}
	}
	d := constScoreDetector(t, cfg)
	frame := imgproc.NewGray(160, 320)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := d.DetectRawCtx(ctx, frame)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline ignored: scan ran %v", elapsed)
	}
}

// TestPoisonFramePanicsInEveryMode: a frame whose pixel buffer is shorter
// than its header claims must panic on the calling goroutine in every
// mode, at every worker count and whether or not the finest levels (and so
// the full-frame HOG) are shed, for the streaming runtime to turn into a
// per-frame PanicError. That holds for a slice cut short within its
// capacity, which a reslice by the claimed size would not catch and the
// scan would read stale bytes from, as for a buffer truncated outright.
// The detector stays usable afterwards.
func TestPoisonFramePanicsInEveryMode(t *testing.T) {
	good := imgproc.NewGray(160, 320)
	poisons := []struct {
		name  string
		frame *imgproc.Gray
	}{
		{"cap-intact", &imgproc.Gray{W: good.W, H: good.H, Pix: good.Pix[:len(good.Pix)/2]}},
		{"truncated", faultinject.TruncatePix(good, len(good.Pix)/2)},
	}
	for _, m := range cancelModes {
		for _, workers := range []int{1, 4} {
			for _, skip := range []int{0, 1} {
				for _, p := range poisons {
					t.Run(fmt.Sprintf("%s/workers=%d/skip=%d/%s", m.name, workers, skip, p.name), func(t *testing.T) {
						cfg := DefaultConfig()
						cfg.Mode = m.mode
						cfg.ScaleStep = 1.3
						cfg.Workers = workers
						cfg.SkipFinest = skip
						model := &svm.Model{W: make([]float64, cfg.DescriptorLen()), B: 1}
						d, err := NewDetector(model, cfg)
						if err != nil {
							t.Fatal(err)
						}
						func() {
							defer func() {
								if recover() == nil {
									t.Error("poison frame did not panic")
								}
							}()
							_, err := d.DetectRaw(p.frame)
							t.Errorf("poison frame returned (err %v)", err)
						}()
						if _, err := d.DetectRaw(good); err != nil {
							t.Fatalf("detector dead after poison frame: %v", err)
						}
					})
				}
			}
		}
	}
}
