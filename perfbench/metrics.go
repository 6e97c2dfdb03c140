package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. README.md defines each.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the user-visible metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_ms_p50", "ms"},
	{"lat_ms_p90", "ms"},
	{"fps", "1/s"},
	{"recall", "ratio"},
	{"precision", "ratio"},
	{"success_ratio", "ratio"},
	{"heap_mb", "MB"},
}

// perLayer are the ledger metrics every traced run reports. A layer that
// is not on a workload's path reads 0 (its work there is none), except the
// ROI ratios, which read 1 because every frame of such a workload is a
// dense full scan.
var perLayer = []metricDef{
	{"core.detect_ms", "ms"},
	{"core.scan_ms", "ms"},
	{"core.nms_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.allocs_per_frame", "count"},
	{"core.alloc_kb_per_frame", "KB"},
	{"core.arena_miss_ratio", "ratio"},
	{"hog.cells_ms", "ms"},
	{"hog.norm_ms", "ms"},
	{"featpyr.pyramid_ms", "ms"},
	{"roi.plan_us", "us"},
	{"roi.full_scan_ratio", "ratio"},
	{"roi.scan_area_ratio", "ratio"},
	{"track.update_us", "us"},
	{"gateway.self_ms", "ms"},
	{"gateway.hedge_ratio", "ratio"},
	{"gateway.retry_ratio", "ratio"},
	{"serve.http_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.shed_ratio", "ratio"},
	{"rt.wait_ms", "ms"},
	{"rt.frame_ms", "ms"},
	{"bench.late_ms_p90", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome counts what a timed phase attempted and how it went.
type outcome struct {
	attempted int
	failed    int // errors, sheds, timeouts and wrong answers
	wrong     int // answers that differ from the reference output
	// ok counts answers that were correct and within the deadline.
	ok int
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.wrong += p.wrong
	o.ok += p.ok
}

// buildResult pairs measured values with the units of defs. The result is
// correct only if something was attempted, nothing failed and the run's
// own checks (quality floors, percentile support) passed. It fails when a
// defined metric is missing, an undefined one is present, or a value is
// not finite, so a run never prints a partial or unparsable result.
func buildResult(defs []metricDef, values map[string]float64, o outcome, valid bool) (result, error) {
	r := result{
		Correct:   o.attempted > 0 && o.failed == 0 && o.wrong == 0 && valid,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			return result{}, fmt.Errorf("metric %s is not defined", name)
		}
	}
	return r, nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // buildResult admits only finite numbers
	}
	return string(b)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// beyond counts the samples strictly above v: a percentile is supported
// when at least ten samples lie beyond it.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
