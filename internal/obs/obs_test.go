package obs

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexMonotone checks the log-linear bucket layout: indices
// are monotone in the value, every value lands within its bucket's
// bounds, and the layout is contiguous from 0.
func TestBucketIndexMonotone(t *testing.T) {
	last := -1
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 32,
		1000, 1 << 20, 1<<20 + 1, 1 << 30, 1 << 39, 1<<40 - 1, 1 << 40, 1 << 50} {
		i := bucketIndex(v)
		if i < last {
			t.Fatalf("bucketIndex(%d) = %d < previous %d: not monotone", v, i, last)
		}
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, i, histBuckets)
		}
		if v < 1<<histMaxExp && bucketUpper(i) < v {
			t.Errorf("value %d exceeds its bucket upper bound %d (bucket %d)", v, bucketUpper(i), i)
		}
		last = i
	}
	// Bounds are strictly increasing, so cumulative walks are well-formed.
	for i := 1; i < histBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketUpper not increasing at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
}

// TestHistogramQuantiles records a known distribution and checks the
// quantiles land within the documented 12.5% bucket error.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	vals := make([]time.Duration, 0, 5000)
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Intn(10_000_000)) * time.Microsecond / 1000 // up to 10ms
		vals = append(vals, d)
		h.Observe(d)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != 5000 {
		t.Fatalf("count %d, want 5000", s.Count)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := s.Quantile(q)
		want := vals[int(q*float64(len(vals)))-1]
		if got < want {
			t.Errorf("q%.2f = %s below true %s (quantiles must not understate)", q, got, want)
		}
		if float64(got) > float64(want)*1.130+float64(time.Microsecond) {
			t.Errorf("q%.2f = %s more than 13%% above true %s", q, got, want)
		}
	}
	if s.Max != vals[len(vals)-1] {
		t.Errorf("max %s, want %s", s.Max, vals[len(vals)-1])
	}
	if got, want := s.Mean(), s.Sum/time.Duration(s.Count); got != want {
		t.Errorf("mean %s, want %s", got, want)
	}
}

// TestHistogramQuantileExact pins the quantile accessor against exactly
// known values: a 1..100 ms ramp (one observation per millisecond) has
// p50 = 50ms, p95 = 95ms, p99 = 99ms by construction. The accessor must
// never understate (it reports the containing bucket's upper bound,
// clamped to the observed max) and must overstate by at most the 12.5%
// bucket-error bound the hedging delay (internal/gateway) relies on: a
// hedge timer derived from an overstated p95 fires late and wastes the
// budget window, so the bound is load-bearing, not cosmetic.
func TestHistogramQuantileExact(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	for _, tc := range []struct {
		q     float64
		exact time.Duration
	}{
		{0.5, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
	} {
		got := h.Quantile(tc.q) // the snapshot-free accessor under test
		if got < tc.exact {
			t.Errorf("Quantile(%.2f) = %s understates exact %s", tc.q, got, tc.exact)
		}
		if maxErr := tc.exact / 8; got > tc.exact+maxErr {
			t.Errorf("Quantile(%.2f) = %s exceeds exact %s by more than 12.5%% (%s allowed)",
				tc.q, got, tc.exact, maxErr)
		}
		if snap := h.Snapshot(); snap.Quantile(tc.q) != got {
			t.Errorf("accessor and snapshot disagree at q=%.2f: %s vs %s",
				tc.q, got, snap.Quantile(tc.q))
		}
	}
	// Nil receiver: the accessor is an observability hook and must be safe
	// wherever a possibly-nil *Histogram travels.
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram Quantile must return 0")
	}
}

// TestHistogramEdges covers empty, negative, and overflow observations.
func TestHistogramEdges(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max != 0 {
		t.Error("empty histogram must report zeroes")
	}
	h.Observe(-time.Second) // clamps to 0
	h.Observe(100 * time.Hour)
	s = h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count %d, want 2", s.Count)
	}
	if s.Quantile(1) != 100*time.Hour {
		t.Errorf("q1 = %s, want the observed max", s.Quantile(1))
	}
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Snapshot().Count != 0 {
		t.Error("nil histogram snapshot not empty")
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines; counters
// must add up (run under -race in tier-1).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const gor, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != gor*per {
		t.Errorf("count %d, want %d", s.Count, gor*per)
	}
}

// TestTraceRingRetainsSlowest fills the ring past capacity and checks it
// keeps exactly the slowest TraceSlots frames, slowest first.
func TestTraceRingRetainsSlowest(t *testing.T) {
	var r TraceRing
	for i := 0; i < 3*TraceSlots; i++ {
		r.Record(&FrameTrace{Seq: uint64(i), Total: time.Duration(i) * time.Millisecond})
	}
	got := r.Snapshot()
	if len(got) != TraceSlots {
		t.Fatalf("ring holds %d, want %d", len(got), TraceSlots)
	}
	for i, tr := range got {
		want := time.Duration(3*TraceSlots-1-i) * time.Millisecond
		if tr.Total != want {
			t.Errorf("slot %d: total %s, want %s", i, tr.Total, want)
		}
	}
	// A fast frame must not evict anything once the ring is full of
	// slower ones.
	r.Record(&FrameTrace{Seq: 999, Total: time.Microsecond})
	for _, tr := range r.Snapshot() {
		if tr.Seq == 999 {
			t.Error("fast frame evicted a slower trace")
		}
	}
}

// TestDetectRecorder checks per-frame accumulation, reset, and nil
// safety.
func TestDetectRecorder(t *testing.T) {
	m := NewMetrics()
	r := NewDetectRecorder(m)
	r.BeginFrame()
	r.Observe(StageScan, 2*time.Millisecond)
	r.Observe(StageScan, 3*time.Millisecond) // accumulates within a frame
	r.Observe(StageNMS, time.Millisecond)
	st := r.FrameStages()
	if st[StageScan] != int64(5*time.Millisecond) {
		t.Errorf("scan stage %d, want %d", st[StageScan], 5*time.Millisecond)
	}
	if got := m.Stage[StageScan].Snapshot().Count; got != 2 {
		t.Errorf("scan histogram count %d, want 2 (one per Observe)", got)
	}
	r.BeginFrame()
	if st := r.FrameStages(); st[StageScan] != 0 || st[StageNMS] != 0 {
		t.Error("BeginFrame did not clear the stage scratch")
	}
	var nilR *DetectRecorder
	nilR.BeginFrame()
	nilR.Observe(StageScan, time.Second)
	nilR.ObserveLevel(time.Second)
	if nilR.FrameStages() != ([NumStages]int64{}) || nilR.LevelTimer() != nil || nilR.Metrics() != nil {
		t.Error("nil recorder must be inert")
	}
}

// TestWritePrometheus smoke-tests the text rendering: parseable lines,
// the expected families, and counter values that match the registry.
func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	r := NewDetectRecorder(m)
	r.Observe(StageScan, 5*time.Millisecond)
	m.Frame.Observe(7 * time.Millisecond)
	m.ArenaHits.Add(3)
	var b strings.Builder
	m.WritePrometheus(&b, "pd")
	out := b.String()
	for _, want := range []string{
		`pd_stage_seconds{stage="scan",quantile="0.5"}`,
		`pd_stage_seconds_count{stage="scan"} 1`,
		"pd_frame_seconds_count 1",
		"pd_arena_hits_total 3",
		"# TYPE pd_arena_hits_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// Frame counters are rt.Stats' alone; internal/serve renders them.
	if strings.Contains(out, "pd_frames_out_total") {
		t.Errorf("registry renders a frame counter:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestSummary smoke-tests the CLI table.
func TestSummary(t *testing.T) {
	m := NewMetrics()
	m.Stage[StageHOGCells].Observe(time.Millisecond)
	m.Frame.Observe(2 * time.Millisecond)
	s := m.Summary()
	if !strings.Contains(s, "hog_cells") || !strings.Contains(s, "frame") {
		t.Errorf("summary missing rows:\n%s", s)
	}
}

// TestStageString pins the label set (the Prometheus stage label values
// are part of the scrape contract).
func TestStageString(t *testing.T) {
	want := []string{"decode", "hog_cells", "hog_norm", "pyramid", "scan", "nms"}
	if NumStages != len(want) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if Stage(-1).String() != "unknown" || Stage(NumStages).String() != "unknown" {
		t.Error("out-of-range stages must stringify as unknown")
	}
}

// TestCascadeSnapshot pins the snapshot semantics the cascade scan relies
// on: nil-safety, the mean-blocks derivation, and trailing-zero trimming of
// the per-stage rejection bank (including the clamp slot).
func TestCascadeSnapshot(t *testing.T) {
	var nilM *Metrics
	if s := nilM.CascadeSnapshot(); s.Windows != 0 || s.StageRejects != nil {
		t.Errorf("nil registry snapshot %+v", s)
	}
	m := NewMetrics()
	if s := m.CascadeSnapshot(); s.MeanBlocks != 0 || s.StageRejects != nil {
		t.Errorf("empty registry snapshot %+v", s)
	}
	m.CascadeWindows.Add(8)
	m.CascadeAccepted.Add(2)
	m.CascadeBlocks.Add(20)
	m.CascadeStageRejects[1].Add(5)
	m.CascadeStageRejects[CascadeStages-1].Add(1) // deep-geometry clamp slot
	s := m.CascadeSnapshot()
	if s.Windows != 8 || s.Accepted != 2 || s.Blocks != 20 {
		t.Errorf("snapshot %+v", s)
	}
	if s.MeanBlocks != 2.5 {
		t.Errorf("mean blocks %v, want 2.5", s.MeanBlocks)
	}
	if len(s.StageRejects) != CascadeStages {
		t.Fatalf("rejects trimmed to %d with the last slot set", len(s.StageRejects))
	}
	if s.StageRejects[1] != 5 || s.StageRejects[CascadeStages-1] != 1 {
		t.Errorf("stage rejects %v", s.StageRejects)
	}
}

// TestWritePrometheusCascade checks the cascade counters' exposition:
// totals always render (counters are monotone from process start), but the
// stage label family and the mean gauge appear only with traffic.
func TestWritePrometheusCascade(t *testing.T) {
	m := NewMetrics()
	var quiet strings.Builder
	m.WritePrometheus(&quiet, "pd")
	if strings.Contains(quiet.String(), "pd_cascade_stage_rejects_total{") {
		t.Error("quiet registry renders stage-reject samples")
	}
	if strings.Contains(quiet.String(), "pd_cascade_mean_blocks_evaluated") {
		t.Error("quiet registry renders the mean gauge")
	}

	m.CascadeWindows.Add(4)
	m.CascadeAccepted.Add(1)
	m.CascadeBlocks.Add(10)
	m.CascadeStageRejects[3].Add(3)
	var b strings.Builder
	m.WritePrometheus(&b, "pd")
	out := b.String()
	for _, want := range []string{
		"# TYPE pd_cascade_windows_total counter",
		"pd_cascade_windows_total 4",
		"pd_cascade_accepted_total 1",
		"pd_cascade_blocks_evaluated_total 10",
		"# TYPE pd_cascade_stage_rejects_total counter",
		`pd_cascade_stage_rejects_total{stage="3"} 3`,
		"# TYPE pd_cascade_mean_blocks_evaluated gauge",
		"pd_cascade_mean_blocks_evaluated 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}
