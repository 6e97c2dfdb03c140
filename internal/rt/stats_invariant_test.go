package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStatsInvariantMidFlight hammers Stats() while frames are being
// submitted, dropped, and scanned concurrently, asserting the accounting
// identity FramesIn == FramesOut + FramesDropped + InFlight at every
// observed instant — not just at idle. Before PR 6 Submit incremented
// FramesIn only after the channel send, so a fast scan loop could emit a
// result (FramesOut++) before intake was counted and a concurrent snapshot
// saw FramesOut + FramesDropped > FramesIn. Run under -race in tier-1.
func TestStatsInvariantMidFlight(t *testing.T) {
	det, frame := testDetector(t, nil)
	m := obs.NewMetrics()
	p, err := New(det, Config{Deadline: time.Second, Queue: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var torn atomic.Uint64
	var hammer, drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for range p.Results() {
		}
	}()
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := p.Stats()
			if s.FramesIn != s.FramesOut+s.FramesDropped+s.InFlight {
				if torn.Add(1) == 1 {
					t.Errorf("torn snapshot: in %d != out %d + dropped %d + inflight %d",
						s.FramesIn, s.FramesOut, s.FramesDropped, s.InFlight)
				}
				return
			}
			runtime.Gosched()
		}
	}()

	// Several submitters flood the 2-deep queue: most frames are evicted by
	// drop-oldest while the scan loop races them, exercising every counter
	// transition concurrently with the snapshots.
	var subs sync.WaitGroup
	for g := 0; g < 4; g++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for i := 0; i < 200; i++ {
				p.Submit(frame)
			}
		}()
	}
	subs.Wait()
	p.Flush()

	s := p.Stats()
	if s.InFlight != 0 {
		t.Errorf("InFlight %d after Flush, want 0", s.InFlight)
	}
	if s.FramesIn != s.FramesOut+s.FramesDropped {
		t.Errorf("post-flush: in %d != out %d + dropped %d", s.FramesIn, s.FramesOut, s.FramesDropped)
	}
	if s.FramesIn == 0 || s.FramesOut == 0 {
		t.Errorf("degenerate run: in %d out %d — test exercised nothing", s.FramesIn, s.FramesOut)
	}

	close(stop)
	hammer.Wait()
	p.Close()
	drain.Wait()
	if n := torn.Load(); n > 0 {
		t.Errorf("%d torn snapshots observed", n)
	}

	// The obs histograms observe every emitted frame exactly once.
	fs := p.Stats()
	if fs.FramesOut > 0 && m.Traces.Len() == 0 {
		t.Error("frames were scanned but the trace ring is empty")
	}
	if got := m.Frame.Snapshot().Count; got != fs.FramesOut {
		t.Errorf("frame histogram count %d, want %d", got, fs.FramesOut)
	}
	if got := m.Wait.Snapshot().Count; got != fs.FramesOut {
		t.Errorf("wait histogram count %d, want %d", got, fs.FramesOut)
	}
}
