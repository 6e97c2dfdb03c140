package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/rt/faultinject"
)

// parseExposition validates the Prometheus text format line by line:
// every non-comment line must be exactly "name_or_name{labels} value"
// with a parseable float value. Returns a full-sample-name -> value map.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for i, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: %q: want exactly 2 fields", i+1, line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %d: %q: bad value: %v", i+1, line, err)
		}
		out[fields[0]] = v
	}
	return out
}

// TestMetricszEndToEnd is the PR's observability acceptance test: after a
// scripted run (successful frames plus an injected fault), the Prometheus
// scrape must parse cleanly, its counters must agree with the JSON
// /statsz aggregate, and the per-stage latency sums must be consistent
// with the end-to-end frame latency. /tracez must return the slowest
// frames with internally consistent spans.
func TestMetricszEndToEnd(t *testing.T) {
	faults := faultinject.New()
	m := obs.NewMetrics()
	sup, err := NewSupervisor(testFactory(t, map[int]*faultinject.Faults{0: faults}), SupervisorConfig{
		Workers:           1,
		Pipeline:          rt.Config{Deadline: 10 * time.Second, Metrics: m},
		RestartBackoff:    10 * time.Millisecond,
		RestartBackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	srv := NewServer(sup, ServerConfig{Metrics: m, DefaultTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := pgmBody(t)

	// Scripted load: a batch of good frames, one injected detector error,
	// then more good frames (so the scrape sees successes AND a failure).
	const good = 8
	for i := 0; i < good/2; i++ {
		if code := postFrameCode(ts.URL, body); code != http.StatusOK {
			t.Fatalf("frame %d: status %d, want 200", i, code)
		}
	}
	faults.FailLevel(1, errors.New("injected pyramid fault"))
	if code := postFrameCode(ts.URL, body); code != http.StatusInternalServerError {
		t.Fatalf("faulted frame: status %d, want 500", code)
	}
	faults.Clear(1)
	for i := good / 2; i < good; i++ {
		if code := postFrameCode(ts.URL, body); code != http.StatusOK {
			t.Fatalf("frame %d: status %d, want 200", i, code)
		}
	}

	// The /statsz ground truth.
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp2, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricsz: status %d", resp2.StatusCode)
	}
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	mm := parseExposition(t, string(raw))

	mx := func(name string) float64 {
		t.Helper()
		v, ok := mm[name]
		if !ok {
			t.Fatalf("scrape missing %s", name)
		}
		return v
	}

	// (a) HTTP counters agree with /statsz server stats.
	if got := mx("pd_http_accepted_total"); got != float64(st.Server.Accepted) {
		t.Errorf("pd_http_accepted_total = %v, statsz says %d", got, st.Server.Accepted)
	}
	if got := mx("pd_http_completed_total"); got != float64(st.Server.Completed) {
		t.Errorf("pd_http_completed_total = %v, statsz says %d", got, st.Server.Completed)
	}
	if got := mx("pd_http_failed_total"); got < 1 {
		t.Errorf("pd_http_failed_total = %v, want >= 1 (injected fault)", got)
	}

	// (b) Frame counters are rendered from the supervisor aggregate that
	// /statsz serves, so on an idle server every one matches it exactly.
	agg := st.Supervisor.Aggregate
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"pd_frames_in_total", agg.FramesIn},
		{"pd_frames_out_total", agg.FramesOut},
		{"pd_frames_dropped_total", agg.FramesDropped},
		{"pd_deadline_misses_total", agg.DeadlineMisses},
		{"pd_frame_errors_total", agg.Errors},
		{"pd_frame_panics_total", agg.Panics},
		{"pd_frames_hung_total", agg.FramesHung},
		{"pd_degrade_events_total", agg.DegradeEvents},
		{"pd_recover_events_total", agg.RecoverEvents},
		{"pd_roi_scans_total", agg.ROIScans},
		{"pd_roi_full_scans_total", agg.ROIFullScans},
		{"pd_roi_regions_total", agg.ROIRegions},
	} {
		if got := mx(c.name); got != float64(c.v) {
			t.Errorf("%s = %v, aggregate says %d", c.name, got, c.v)
		}
	}
	out := mx("pd_frames_out_total")
	if out < good {
		t.Errorf("pd_frames_out_total = %v, want >= %d scanned frames", out, good)
	}
	if got := mx("pd_frame_errors_total"); got < 1 {
		t.Errorf("pd_frame_errors_total = %v, want >= 1", got)
	}

	// (c) Stage sums consistent with end-to-end frame latency: every
	// pipeline stage span nests inside its frame span, so the summed
	// stage time can never exceed the summed frame time. (decode is an
	// HTTP-layer stage recorded outside frame spans — excluded here,
	// checked in (d).)
	frameSum := mx("pd_frame_seconds_sum")
	if got := mx("pd_frame_seconds_count"); got != out {
		t.Errorf("pd_frame_seconds_count = %v, want %v (one frame span per emitted frame)", got, out)
	}
	var stageSum float64
	for _, stage := range []string{"hog_cells", "hog_norm", "pyramid", "scan", "nms"} {
		name := fmt.Sprintf("pd_stage_seconds_sum{stage=%q}", stage)
		v := mx(name)
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
		stageSum += v
	}
	if stageSum <= 0 || frameSum <= 0 {
		t.Fatalf("degenerate sums: stages %v, frames %v", stageSum, frameSum)
	}
	if stageSum > frameSum {
		t.Errorf("stage sums %.6fs exceed frame sum %.6fs: stage spans must nest inside frame spans",
			stageSum, frameSum)
	}

	// (d) HTTP-layer decode timing is present for every request that
	// parsed (recorded by the server, not the pipeline).
	if v := mx(`pd_stage_seconds_count{stage="decode"}`); v < float64(good) {
		t.Errorf("decode stage count = %v, want >= %d", v, good)
	}

	// (e) /tracez returns the slowest frames, slowest first, with spans
	// that nest inside each frame's total.
	resp3, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	var tr tracezResponse
	if err := json.NewDecoder(resp3.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if len(tr.Slowest) == 0 {
		t.Fatal("/tracez returned no traces after a scripted run")
	}
	for i, f := range tr.Slowest {
		if i > 0 && f.Total > tr.Slowest[i-1].Total {
			t.Errorf("trace %d out of order: %v after %v", i, f.Total, tr.Slowest[i-1].Total)
		}
		var stages time.Duration
		for _, ns := range f.Stages {
			stages += time.Duration(ns)
		}
		if stages > f.Total {
			t.Errorf("trace seq %d: stage spans %v exceed total %v", f.Seq, stages, f.Total)
		}
	}
}
