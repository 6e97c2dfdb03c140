package gateway

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/serve"
)

// scriptBackend is a scripted replica: instant success by default, can be
// stalled (Detect blocks until unstalled or cancelled), forced to fail,
// or given a probe verdict.
type scriptBackend struct {
	mu       sync.Mutex
	stallCh  chan struct{}
	err      error
	probeErr error
	calls    int
}

func (b *scriptBackend) Detect(ctx context.Context, stream int, frame *imgproc.Gray) ([]eval.Detection, error) {
	b.mu.Lock()
	b.calls++
	stall := b.stallCh
	err := b.err
	b.mu.Unlock()
	if stall != nil {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-stall:
		}
	}
	if err != nil {
		return nil, err
	}
	return []eval.Detection{{Box: geom.XYWH(1, 2, 32, 64), Score: 0.9}}, nil
}

func (b *scriptBackend) Probe(context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probeErr
}

func (b *scriptBackend) stall() {
	b.mu.Lock()
	b.stallCh = make(chan struct{})
	b.mu.Unlock()
}

func (b *scriptBackend) unstall() {
	b.mu.Lock()
	if b.stallCh != nil {
		close(b.stallCh)
		b.stallCh = nil
	}
	b.mu.Unlock()
}

func (b *scriptBackend) callCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

// pinnedStream returns a stream ID whose affinity pin is replica want of n.
func pinnedStream(t *testing.T, want, n int) int {
	t.Helper()
	for s := 0; s < 64; s++ {
		if streamHash(s)%uint64(n) == uint64(want) {
			return s
		}
	}
	t.Fatal("no stream pins to the wanted replica in 64 tries")
	return -1
}

type doResult struct {
	dets []eval.Detection
	err  error
}

// TestHedgeEjectProbeReadmit is the acceptance arc, fully deterministic
// on a fake clock under -race: the primary replica hard-stalls, the hedge
// fires after the latency-quantile delay, the second replica's answer
// comes back, the stalled replica accumulates hedge-loss failures until
// it is ejected, and after it recovers a probe readmits it through the
// probation window.
func TestHedgeEjectProbeReadmit(t *testing.T) {
	clk := NewFakeClock(time.Unix(100, 0))
	b0, b1 := &scriptBackend{}, &scriptBackend{}
	g, err := New([]Backend{b0, b1}, Config{
		EjectAfter:         3,
		EjectBackoff:       100 * time.Millisecond,
		EjectBackoffMax:    400 * time.Millisecond,
		ProbationSuccesses: 3,
		ProbeInterval:      -1, // ProbeSweep driven by hand
		HedgeWarmup:        1,
		HedgeFloor:         5 * time.Millisecond,
		Clock:              clk,
		Seed:               42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	frame := imgproc.NewGray(8, 8)
	ctx := context.Background()
	pin := pinnedStream(t, 0, 2)
	dos := 0 // total Do calls == hedge timers created (2 replicas)

	// Warmup: one clean request lands on the affinity pin and seeds the
	// latency histogram past HedgeWarmup.
	if _, err := g.Do(ctx, pin, frame); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	dos++
	if b0.callCount() != 1 || b1.callCount() != 0 {
		t.Fatalf("warmup went to r%d, want the pin r0", 1)
	}

	// Hard-stall the primary. Three requests in a row must each be saved
	// by a hedge onto r1 after the 5ms (floor-clamped quantile) delay —
	// and each hedge win charges the overtaken primary a failure, so the
	// third ejects it.
	b0.stall()
	for i := 1; i <= 3; i++ {
		done := make(chan doResult, 1)
		go func() {
			dets, err := g.Do(ctx, pin, frame)
			done <- doResult{dets, err}
		}()
		dos++
		clk.BlockUntilTimers(dos) // the hedge timer exists; Advance reaches it
		clk.Advance(5 * time.Millisecond)
		r := <-done
		if r.err != nil {
			t.Fatalf("stalled round %d: %v", i, r.err)
		}
		if len(r.dets) != 1 {
			t.Fatalf("stalled round %d: %d detections, want the hedge's answer", i, len(r.dets))
		}
	}
	st := g.Stats()
	if st.HedgesFired != 3 || st.HedgeWins != 3 {
		t.Errorf("hedges fired/won = %d/%d, want 3/3", st.HedgesFired, st.HedgeWins)
	}
	if st.Ejections != 1 {
		t.Errorf("ejections = %d, want 1 (three hedge losses at EjectAfter=3)", st.Ejections)
	}
	if states := g.ReplicaStates(); states[0] != Ejected || states[1] != Healthy {
		t.Fatalf("states = %v, want [Ejected Healthy]", states)
	}

	// With r0 out of rotation, traffic flows to r1 without hedging onto
	// the ejected replica. A hedge can win before its primary's goroutine
	// reaches r0, so first wait for all four r0 calls (warmup plus three
	// stalled primaries) to land.
	for settle := time.Now().Add(5 * time.Second); b0.callCount() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(settle) {
			t.Fatalf("r0 calls = %d, want the warmup and three stalled primaries", b0.callCount())
		}
	}
	b0calls := b0.callCount()
	if _, err := g.Do(ctx, pin, frame); err != nil {
		t.Fatalf("post-ejection request: %v", err)
	}
	dos++
	if b0.callCount() != b0calls {
		t.Error("request reached the ejected replica")
	}

	// The ejection backoff gates probing: a sweep before it elapses sends
	// nothing.
	g.ProbeSweep(ctx)
	if got := g.Stats().Probes; got != 0 {
		t.Fatalf("probes = %d before the backoff elapsed, want 0", got)
	}

	// The replica recovers; after the backoff a probe readmits it into
	// probation, and ProbationSuccesses clean requests rejoin it fully.
	b0.unstall()
	clk.Advance(100 * time.Millisecond)
	g.ProbeSweep(ctx)
	if got := g.Stats().Probes; got != 1 {
		t.Fatalf("probes = %d after the backoff, want 1", got)
	}
	if states := g.ReplicaStates(); states[0] != Probation {
		t.Fatalf("state = %v after probe success, want Probation", states[0])
	}
	for i := 0; i < 3; i++ {
		if _, err := g.Do(ctx, pin, frame); err != nil {
			t.Fatalf("probation request %d: %v", i+1, err)
		}
		dos++
	}
	st = g.Stats()
	if st.Rejoins != 1 {
		t.Errorf("rejoins = %d, want 1", st.Rejoins)
	}
	if states := g.ReplicaStates(); states[0] != Healthy {
		t.Fatalf("state = %v after probation, want Healthy", states[0])
	}
	// Exactly one answer per accepted request, end to end.
	if st.Accepted != uint64(dos) || st.Answered != uint64(dos) {
		t.Errorf("accepted/answered = %d/%d, want %d/%d", st.Accepted, st.Answered, dos, dos)
	}
}

// TestAffinityStableAndFailover pins the affinity contract: a stream
// always lands on its hash-pinned replica, and when that replica is
// ejected the stream fails over to another without error.
func TestAffinityStableAndFailover(t *testing.T) {
	clk := NewFakeClock(time.Unix(100, 0))
	backends := make([]Backend, 4)
	scripts := make([]*scriptBackend, 4)
	for i := range backends {
		scripts[i] = &scriptBackend{}
		backends[i] = scripts[i]
	}
	g, err := New(backends, Config{ProbeInterval: -1, Clock: clk, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	frame := imgproc.NewGray(8, 8)
	ctx := context.Background()

	for stream := 0; stream < 8; stream++ {
		pin := int(streamHash(stream) % 4)
		before := scripts[pin].callCount()
		for i := 0; i < 5; i++ {
			if _, err := g.Do(ctx, stream, frame); err != nil {
				t.Fatalf("stream %d: %v", stream, err)
			}
		}
		if got := scripts[pin].callCount() - before; got != 5 {
			t.Errorf("stream %d: pin r%d served %d of 5 requests", stream, pin, got)
		}
	}

	// Eject stream 0's pin; its traffic must fail over, not fail.
	pin := int(streamHash(0) % 4)
	g.mu.Lock()
	g.replicas[pin].health.eject(clk.Now())
	g.mu.Unlock()
	before := scripts[pin].callCount()
	for i := 0; i < 5; i++ {
		if _, err := g.Do(ctx, 0, frame); err != nil {
			t.Fatalf("failover request %d: %v", i+1, err)
		}
	}
	if scripts[pin].callCount() != before {
		t.Error("ejected pin still receiving traffic")
	}
}

// TestPickP2CLeastInFlight: among untried in-rotation candidates the
// gateway compares two choices by in-flight load; with exactly two
// candidates the comparison is total, so the idle one must win.
func TestPickP2CLeastInFlight(t *testing.T) {
	clk := NewFakeClock(time.Unix(100, 0))
	g, err := New([]Backend{&scriptBackend{}, &scriptBackend{}, &scriptBackend{}},
		Config{ProbeInterval: -1, Clock: clk, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	tried := map[*replica]bool{g.replicas[0]: true}
	g.replicas[1].inFlight.Set(5)
	g.replicas[2].inFlight.Set(0)
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < 10; i++ {
		if got := g.pick(0, tried); got != g.replicas[2] {
			t.Fatalf("pick chose %s (in-flight %d), want the idle r2",
				got.name, got.inFlight.Load())
		}
	}
}

// TestPickFailStatic: with every replica ejected, the first attempt still
// picks one (degrade to trying, not certain failure) — but a hedge/retry
// pick (tried non-empty) returns nil rather than spending budget on a
// known-ejected replica.
func TestPickFailStatic(t *testing.T) {
	clk := NewFakeClock(time.Unix(100, 0))
	g, err := New([]Backend{&scriptBackend{}, &scriptBackend{}},
		Config{ProbeInterval: -1, Clock: clk, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.replicas {
		r.health.eject(clk.Now())
	}
	if got := g.pick(0, map[*replica]bool{}); got == nil {
		t.Error("first attempt must fail static when all replicas are ejected")
	}
	if got := g.pick(0, map[*replica]bool{g.replicas[0]: true}); got != nil {
		t.Errorf("hedge pick fail-static'd onto ejected %s", got.name)
	}
}

// TestRetryBudget: a post-failure retry spends a token; with the bucket
// drained (burst 1, no successes to refill it) the next failure is
// answered without a retry — a brown-out cannot amplify itself.
func TestRetryBudget(t *testing.T) {
	clk := NewFakeClock(time.Unix(100, 0))
	fail := &serve.APIError{Status: 503, Message: "down"}
	b0, b1 := &scriptBackend{err: fail}, &scriptBackend{err: fail}
	g, err := New([]Backend{b0, b1}, Config{
		ProbeInterval: -1, Clock: clk, Seed: 3,
		RetryBurst: 1, RetryRatio: 0.001,
		EjectAfter: 100, // keep ejection out of this test's way
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	frame := imgproc.NewGray(8, 8)

	if _, err := g.Do(context.Background(), 0, frame); err == nil {
		t.Fatal("Do must fail when every replica fails")
	}
	if got := g.Stats().Retries; got != 1 {
		t.Fatalf("retries = %d after first failure, want 1 (budget had a token)", got)
	}
	if b0.callCount()+b1.callCount() != 2 {
		t.Fatalf("attempts = %d, want 2 (primary + retry)", b0.callCount()+b1.callCount())
	}
	if _, err := g.Do(context.Background(), 0, frame); err == nil {
		t.Fatal("Do must fail when every replica fails")
	}
	if got := g.Stats().Retries; got != 1 {
		t.Errorf("retries = %d after drained budget, want still 1", got)
	}
	if b0.callCount()+b1.callCount() != 3 {
		t.Errorf("attempts = %d, want 3 (no retry on the second request)", b0.callCount()+b1.callCount())
	}
	st := g.Stats()
	if st.Accepted != 2 || st.Answered != 2 {
		t.Errorf("accepted/answered = %d/%d, want 2/2", st.Accepted, st.Answered)
	}
}

// TestHedgeBudget: once the hedge bucket is drained, the timer firing
// launches nothing and the request simply keeps waiting for its primary.
func TestHedgeBudget(t *testing.T) {
	clk := NewFakeClock(time.Unix(100, 0))
	b0, b1 := &scriptBackend{}, &scriptBackend{}
	g, err := New([]Backend{b0, b1}, Config{
		ProbeInterval: -1, Clock: clk, Seed: 5,
		HedgeBurst: 1, HedgeRatio: 0.001,
		HedgeWarmup: 1, HedgeFloor: 5 * time.Millisecond,
		EjectAfter: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	frame := imgproc.NewGray(8, 8)
	ctx := context.Background()
	pin := pinnedStream(t, 0, 2)

	if _, err := g.Do(ctx, pin, frame); err != nil { // warmup
		t.Fatal(err)
	}
	b0.stall()
	// Request 2: the single hedge token saves it.
	done := make(chan doResult, 1)
	go func() {
		dets, err := g.Do(ctx, pin, frame)
		done <- doResult{dets, err}
	}()
	clk.BlockUntilTimers(2)
	clk.Advance(5 * time.Millisecond)
	if r := <-done; r.err != nil {
		t.Fatalf("hedged request: %v", r.err)
	}
	if got := g.Stats().HedgesFired; got != 1 {
		t.Fatalf("hedges fired = %d, want 1", got)
	}
	// Request 3: bucket empty — the timer fires, nothing launches, and
	// the request is answered by the (eventually unstalled) primary.
	go func() {
		dets, err := g.Do(ctx, pin, frame)
		done <- doResult{dets, err}
	}()
	clk.BlockUntilTimers(3)
	clk.Advance(5 * time.Millisecond)
	b0.unstall()
	if r := <-done; r.err != nil {
		t.Fatalf("budget-denied request: %v", r.err)
	}
	if got := g.Stats().HedgesFired; got != 1 {
		t.Errorf("hedges fired = %d after drained budget, want still 1", got)
	}
	if b1.callCount() != 1 {
		t.Errorf("r1 served %d calls, want exactly the one hedge", b1.callCount())
	}
}

// TestClassify pins the fault/retry classification table.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		name             string
		err              error
		fault, retryable bool
	}{
		{"nil", nil, false, false},
		{"canceled", context.Canceled, false, false},
		{"deadline", context.DeadlineExceeded, true, false},
		{"api 429", &serve.APIError{Status: 429}, true, true},
		{"api 503", &serve.APIError{Status: 503}, true, true},
		{"api 504", &serve.APIError{Status: 504}, true, true},
		{"api 400", &serve.APIError{Status: 400}, false, false},
		{"api 500", &serve.APIError{Status: 500}, true, false},
		{"worker restarting", serve.ErrWorkerRestarting, true, true},
		{"transport", errors.New("connection refused"), true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fault, retryable := classify(tc.err)
			if fault != tc.fault || retryable != tc.retryable {
				t.Errorf("classify(%v) = (%v, %v), want (%v, %v)",
					tc.err, fault, retryable, tc.fault, tc.retryable)
			}
		})
	}
}

// TestTokenBucket pins the milli-token math: burst capacity, whole-token
// takes, fractional deposits, and the cap.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(2, 0.1)
	if !b.take() || !b.take() {
		t.Fatal("a fresh bucket must hold its burst")
	}
	if b.take() {
		t.Fatal("take beyond the burst must fail")
	}
	// 10 successes at ratio 0.1 = one whole token.
	for i := 0; i < 9; i++ {
		b.deposit()
		if b.take() {
			t.Fatalf("took a token after only %d deposits at ratio 0.1", i+1)
		}
	}
	b.deposit()
	if !b.take() {
		t.Fatal("10 deposits at ratio 0.1 must fund one token")
	}
	// Deposits never exceed the cap.
	for i := 0; i < 100; i++ {
		b.deposit()
	}
	if b.balance > b.max {
		t.Fatalf("balance %d exceeds cap %d", b.balance, b.max)
	}
}

// TestNewEmptyPool: an empty pool is a construction error.
func TestNewEmptyPool(t *testing.T) {
	if _, err := New(nil, Config{}); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("New(nil) = %v, want ErrNoReplicas", err)
	}
}

// TestFakeClockTimers pins the FakeClock semantics the deterministic
// tests lean on: deadline-ordered firing, Stop, and BlockUntilTimers.
func TestFakeClockTimers(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	t1 := clk.NewTimer(10 * time.Millisecond)
	t2 := clk.NewTimer(5 * time.Millisecond)
	t3 := clk.NewTimer(20 * time.Millisecond)
	clk.BlockUntilTimers(3) // already created; must not block
	if !t3.Stop() {
		t.Error("Stop on a pending timer must report true")
	}
	clk.Advance(15 * time.Millisecond)
	select {
	case <-t2.C():
	default:
		t.Fatal("t2 (5ms) did not fire after Advance(15ms)")
	}
	select {
	case <-t1.C():
	default:
		t.Fatal("t1 (10ms) did not fire after Advance(15ms)")
	}
	select {
	case <-t3.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if t1.Stop() {
		t.Error("Stop after firing must report false")
	}
	// Zero-delay timers fire immediately.
	t4 := clk.NewTimer(0)
	select {
	case <-t4.C():
	default:
		t.Fatal("zero-delay timer did not fire immediately")
	}
	if clk.Now() != time.Unix(0, 0).Add(15*time.Millisecond) {
		t.Errorf("Now = %v, want start+15ms", clk.Now())
	}
}
