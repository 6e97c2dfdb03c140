package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Prometheus text-format rendering. Everything here runs on the scrape
// path and allocates freely; nothing here touches the record hot path.
//
// Histograms render as Prometheus summaries (quantile label + _sum +
// _count) plus a companion _max_seconds gauge: the log-spaced buckets
// give calibrated p50/p95/p99 directly, which keeps scrapes small and
// the acceptance math (stage sums vs. frame sums) one subtraction away.

// seconds renders a duration as float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// WriteCounterLine writes one counter sample. labels is the rendered
// label set without braces ("" for none), e.g. `worker="0"`.
func WriteCounterLine(w io.Writer, name, labels string, v uint64) {
	if labels != "" {
		fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
	} else {
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
}

// WriteGaugeLine writes one gauge sample.
func WriteGaugeLine(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(w, "%s{%s} %g\n", name, labels, v)
	} else {
		fmt.Fprintf(w, "%s %g\n", name, v)
	}
}

// WriteSummary renders one histogram snapshot as a Prometheus summary
// (p50/p95/p99 quantile samples plus _sum, _count, and a _max_seconds
// companion gauge). labels is the rendered label set without braces (""
// for none). Exported so layers outside this package with their own
// histograms (internal/gateway's per-replica latency) render the same
// shape the shared registry does.
func WriteSummary(w io.Writer, name, labels string, s HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, q := range [...]struct {
		l string
		q float64
	}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
		fmt.Fprintf(w, "%s{%s%squantile=\"%s\"} %g\n", name, labels, sep, q.l, seconds(s.Quantile(q.q)))
	}
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, seconds(s.Sum))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, s.Count)
		fmt.Fprintf(w, "%s_max_seconds{%s} %g\n", name, labels, seconds(s.Max))
	} else {
		fmt.Fprintf(w, "%s_sum %g\n", name, seconds(s.Sum))
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
		fmt.Fprintf(w, "%s_max_seconds %g\n", name, seconds(s.Max))
	}
}

// WritePrometheus renders the registry in Prometheus text exposition
// format with the given metric-name prefix (conventionally "pd").
func (m *Metrics) WritePrometheus(w io.Writer, prefix string) {
	if m == nil {
		return
	}
	p := func(name string) string { return prefix + "_" + name }

	fmt.Fprintf(w, "# TYPE %s summary\n", p("stage_seconds"))
	for s := Stage(0); int(s) < NumStages; s++ {
		snap := m.Stage[s].Snapshot()
		if snap.Count == 0 {
			continue
		}
		WriteSummary(w, p("stage_seconds"), `stage="`+s.String()+`"`, snap)
	}
	for _, h := range [...]struct {
		name string
		h    *Histogram
	}{
		{"pyramid_level_seconds", &m.PyrLevel},
		{"frame_seconds", &m.Frame},
		{"queue_wait_seconds", &m.Wait},
	} {
		fmt.Fprintf(w, "# TYPE %s summary\n", p(h.name))
		WriteSummary(w, p(h.name), "", h.h.Snapshot())
	}

	for _, c := range [...]struct {
		name string
		c    *Counter
	}{
		{"arena_hits_total", &m.ArenaHits},
		{"arena_misses_total", &m.ArenaMisses},
		{"cascade_windows_total", &m.CascadeWindows},
		{"cascade_accepted_total", &m.CascadeAccepted},
		{"cascade_blocks_evaluated_total", &m.CascadeBlocks},
	} {
		fmt.Fprintf(w, "# TYPE %s counter\n", p(c.name))
		WriteCounterLine(w, p(c.name), "", c.c.Load())
	}
	// Per-stage rejection counters: only stages that have fired render, so
	// a cascade-off service does not pad scrapes with 32 zero lines.
	wroteStageType := false
	for i := range m.CascadeStageRejects {
		v := m.CascadeStageRejects[i].Load()
		if v == 0 {
			continue
		}
		if !wroteStageType {
			fmt.Fprintf(w, "# TYPE %s counter\n", p("cascade_stage_rejects_total"))
			wroteStageType = true
		}
		WriteCounterLine(w, p("cascade_stage_rejects_total"), fmt.Sprintf(`stage="%d"`, i), v)
	}
	if cs := m.CascadeSnapshot(); cs.Windows > 0 {
		fmt.Fprintf(w, "# TYPE %s gauge\n", p("cascade_mean_blocks_evaluated"))
		WriteGaugeLine(w, p("cascade_mean_blocks_evaluated"), "", cs.MeanBlocks)
	}
	fmt.Fprintf(w, "# TYPE %s gauge\n", p("abandoned_scanners"))
	WriteGaugeLine(w, p("abandoned_scanners"), "", float64(m.AbandonedScanners.Load()))
	WriteGaugeLine(w, p("trace_slots"), "", float64(m.Traces.Len()))
}

// Summary renders a human-readable per-stage latency table for CLI
// output (pddetect -stream, examples/dashcam).
func (m *Metrics) Summary() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %10s %10s %10s %10s\n", "stage", "count", "p50", "p95", "p99", "max")
	row := func(name string, s HistogramSnapshot) {
		if s.Count == 0 {
			return
		}
		fmt.Fprintf(&b, "%-12s %8d %10s %10s %10s %10s\n", name, s.Count,
			fmtDur(s.Quantile(0.5)), fmtDur(s.Quantile(0.95)),
			fmtDur(s.Quantile(0.99)), fmtDur(s.Max))
	}
	for s := Stage(0); int(s) < NumStages; s++ {
		row(s.String(), m.Stage[s].Snapshot())
	}
	row("pyr_level", m.PyrLevel.Snapshot())
	row("queue_wait", m.Wait.Snapshot())
	row("frame", m.Frame.Snapshot())
	return b.String()
}

// fmtDur rounds a duration to a dashboard-friendly precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
