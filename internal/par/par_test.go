package par

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			hits := make([]atomic.Int32, n)
			if err := Do(context.Background(), n, workers, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: job %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestDoPanicComesBackAsError(t *testing.T) {
	for _, workers := range []int{2, 4} {
		err := Do(context.Background(), 16, workers, func(i int) error {
			if i == 5 {
				panic("poison job")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "poison job") {
			t.Errorf("workers=%d: got %v, want the recovered panic", workers, err)
		}
	}
}

func TestDoCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var cancelled atomic.Bool
		var late atomic.Int32
		err := Do(ctx, 1000, workers, func(i int) error {
			if cancelled.Load() {
				late.Add(1)
			}
			if i == 3 {
				cancel()
				cancelled.Store(true)
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		// A worker may already have passed its context check when the cancel
		// lands, so it can start one more job; none claims a second.
		if got := late.Load(); got > int32(workers) {
			t.Errorf("workers=%d: %d jobs started after the cancel", workers, got)
		}
		cancel()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		if err := Do(ctx, 10, workers, func(int) error {
			t.Error("job ran under a context cancelled before the call")
			return nil
		}); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

func TestDoCancellationNeverMasksRealError(t *testing.T) {
	real := errors.New("corrupt level")
	for _, workers := range []int{2, 4} {
		for trial := 0; trial < 50; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			// Job 0 fails for real only after the cancellation it provokes in
			// the other jobs has been recorded.
			cancelled := make(chan struct{})
			err := Do(ctx, 64, workers, func(i int) error {
				if i == 0 {
					<-cancelled
					return real
				}
				if i == 1 {
					cancel()
					close(cancelled)
				}
				return ctx.Err()
			})
			cancel()
			if !errors.Is(err, real) {
				t.Fatalf("workers=%d trial %d: got %v, want the real error", workers, trial, err)
			}
		}
	}
}

func TestDoFirstErrorStopsDispatch(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Do(context.Background(), 1000, 1, func(i int) error {
		ran.Add(1)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran.Load() != 3 {
		t.Errorf("serial: got %v after %d jobs, want boom after 3", err, ran.Load())
	}
	ran.Store(0)
	err = Do(context.Background(), 1000, 3, func(i int) error {
		ran.Add(1)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran.Load() > 2+3+1 {
		t.Errorf("parallel: got %v after %d jobs, want boom and dispatch stopped", err, ran.Load())
	}
}

func TestDoSerialPathAllocatesNothing(t *testing.T) {
	var sum int
	job := func(i int) error {
		sum += i
		return nil
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if err := Do(ctx, 32, 1, job); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("serial Do: %v allocs/op, want 0", n)
	}
}
