// Package par runs a fixed number of independent jobs on a bounded set of
// goroutines. It is the one worker pool of the detection hot path: the HOG
// front end (luminance rows, cell bands, block rows), the feature-pyramid
// resampler (level row bands), and the window scan (level row shards) all
// fan out through Do.
package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Do calls job(i) for every i in [0, n) on up to workers goroutines, the
// calling goroutine included, and returns once every started job has
// returned. Jobs are handed out in ascending order through an atomic
// counter, so they must be independent of one another; callers that need a
// deterministic result write job i's output to slot i and merge in index
// order afterwards.
//
// Dispatch stops at the first job error or once ctx is done; jobs already
// running finish. Do returns the first error that is not a context
// cancellation if any job returned one, so a real failure is never masked
// by the cancellations it triggered elsewhere; otherwise the first
// cancellation error, or ctx.Err() if ctx ended before every job was
// dispatched; otherwise nil. On a non-nil return some jobs did not run.
//
// With workers <= 1 (or n <= 1) the jobs run inline on the calling
// goroutine, which starts no goroutine and allocates nothing; a panic there
// propagates to the caller like any other inline code. With more workers,
// a panicking job is recovered on its worker and returned as an error, since
// a panic on a pool goroutine would otherwise end the process.
func Do(ctx context.Context, n, workers int, job func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	r := &run{ctx: ctx, n: int64(n), job: job}
	r.wg.Add(workers - 1)
	work := func() {
		defer r.wg.Done()
		r.work()
	}
	for w := 1; w < workers; w++ {
		go work()
	}
	r.work()
	r.wg.Wait()
	return r.err
}

// run is the shared state of one parallel Do call.
type run struct {
	ctx  context.Context
	n    int64
	job  func(int) error
	next atomic.Int64
	stop atomic.Bool
	wg   sync.WaitGroup

	mu  sync.Mutex
	err error // first non-cancellation error, else first cancellation
}

// work claims and runs jobs until they run out or dispatch stops.
func (r *run) work() {
	i := int64(-1)
	defer func() {
		if v := recover(); v != nil {
			r.fail(fmt.Errorf("par: job %d panicked: %v", i, v))
		}
	}()
	for !r.stop.Load() {
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
			return
		}
		i = r.next.Add(1) - 1
		if i >= r.n {
			return
		}
		if err := r.job(int(i)); err != nil {
			r.fail(err)
		}
	}
}

// fail records err and stops dispatch. A real error replaces a recorded
// cancellation; otherwise the first error is kept.
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.err == nil || (isCancel(r.err) && !isCancel(err)) {
		r.err = err
	}
	r.mu.Unlock()
	r.stop.Store(true)
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
