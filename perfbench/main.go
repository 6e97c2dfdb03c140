// Command perfbench is the repository's benchmark: it times the pedestrian
// detector on three workloads and checks its detections against ground
// truth. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// A run builds the stack setups times; setup_s is the median, and the last
// stack built is the one timed. An odd count makes the median one set-up.
const setups = 15

// minP90Samples is the fewest latency samples an end-to-end run takes, so
// that at least ten lie beyond p90: with n samples, n-1-floor(0.9(n-1))
// do, which is 10 at n = 101 and 11 here.
const minP90Samples = 110

// setupBursts is the calibration bursts timed before each set-up.
const setupBursts = 4

// stack is a built workload, ready to time.
type stack interface {
	// measure runs the workload for d, and longer if it has not yet
	// answered minSamples frames or requests, and returns what it saw.
	// It times calibration bursts on sp where the stack is idle.
	measure(d time.Duration, minSamples int, sp *speedometer) (phase, error)
	// settle runs one more frame or request, untimed.
	settle() error
	// close stops every goroutine and server the stack started.
	close()
}

// phase is the outcome of one timed phase.
type phase struct {
	lat []float64 // ms per answered frame or request
	out outcome
	q   quality
	// elapsed is the phase's length: the program's frame spans in the
	// closed loop, the send schedule in the open loop, which is paced.
	elapsed time.Duration
	paced   bool
	layers  map[string]float64 // per-layer ledger; traced phases only
}

// workloads maps each workload name to the stack that runs it.
var workloads = map[string]func(in *inputs, seed int64, traced bool) (stack, error){
	"hd-dense": func(in *inputs, _ int64, traced bool) (stack, error) {
		return newHDStack(in, false, traced)
	},
	"hd-tracked": func(in *inputs, _ int64, traced bool) (stack, error) {
		return newHDStack(in, true, traced)
	},
	"crops-served": func(in *inputs, seed int64, traced bool) (stack, error) {
		return newCropStack(in, seed, traced)
	},
}

// floors are the recorded quality floors, about a fifth below the lowest
// recall and precision seen over seeds 1-10: a run below its workload's
// floor is not correct.
var floors = map[string]struct{ recall, precision float64 }{
	"hd-dense":     {0.6, 0.4},
	"hd-tracked":   {0.6, 0.4},
	"crops-served": {0.75, 0.75},
}

func main() {
	workload := flag.String("workload", "", "workload: hd-dense, hd-tracked or crops-served")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, d time.Duration, traced bool) error {
	build, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	in, err := makeInputs(workload, seed, defaultInputs, nproc)
	if err != nil {
		return err
	}
	newStack := func(traced bool) (stack, error) { return build(in, seed, traced) }

	run, defs := runEndToEnd, endToEnd
	if traced {
		run, defs = runTraced, perLayer
	}
	sp := newSpeedometer()
	rep, err := run(newStack, d, sp)
	if err != nil {
		return err
	}
	fl := floors[workload]
	valid := rep.q.recall() >= fl.recall && rep.q.precision() >= fl.precision
	if !traced {
		// An end-to-end run reports p90, which needs ten samples beyond it.
		valid = valid && beyond(rep.lat, quantile(rep.lat, 0.9)) >= 10
	}
	res, err := buildResult(defs, rep.values, rep.out, valid)
	if err != nil {
		return err
	}
	fmt.Println(stamp(workload, seed, rep.lat, rep.q, sp))
	fmt.Println(res.line())
	return nil
}

// report is what a run measured: its metrics, outcome, match counts and
// the latency samples behind its percentiles.
type report struct {
	values map[string]float64
	out    outcome
	q      quality
	lat    []float64
}

// runEndToEnd builds the stack repeatedly, times the last one with tracing
// off and reports the end-to-end metrics in reference-core time.
func runEndToEnd(newStack func(bool) (stack, error), d time.Duration, sp *speedometer) (report, error) {
	heap0 := heapMB(2)
	var times []float64
	var st stack
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
			runtime.GC() // the closed stack is the benchmark's garbage, not set-up work
		}
		sp.sample(setupBursts)
		t0 := time.Now()
		var err error
		if st, err = newStack(false); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	ph, err := st.measure(d, minP90Samples, sp)
	if err != nil {
		st.close()
		return report{}, err
	}
	heap, err := retainedHeapMB(st)
	st.close()
	if err != nil {
		return report{}, err
	}
	// The latency samples are the benchmark's, not the program's.
	heap -= heap0 + float64(8*cap(ph.lat))/(1<<20)
	k := sp.scale()
	phaseS := ph.elapsed.Seconds()
	if !ph.paced {
		phaseS *= k // the program's own time, so reference-core time
	}
	v := map[string]float64{
		"setup_s":       quantile(times, 0.5),
		"lat_ms_p50":    quantile(ph.lat, 0.5),
		"lat_ms_p90":    quantile(ph.lat, 0.9),
		"fps":           float64(ph.out.ok) / phaseS,
		"recall":        ph.q.recall(),
		"precision":     ph.q.precision(),
		"success_ratio": ratio(float64(ph.out.attempted-ph.out.failed), float64(ph.out.attempted)),
		"heap_mb":       heap,
	}
	scaleDurations(endToEnd, v, k)
	return report{v, ph.out, ph.q, ph.lat}, nil
}

// runTraced times half of d with tracing off and half with it on, and
// reports the traced half's per-layer ledger, in reference-core time, plus
// the tracing overhead.
func runTraced(newStack func(bool) (stack, error), d time.Duration, sp *speedometer) (report, error) {
	var phases [2]phase
	for i, traced := range []bool{false, true} {
		sp.sample(setupBursts)
		st, err := newStack(traced)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		phases[i], err = st.measure(d/2, 0, sp)
		st.close()
		if err != nil {
			return report{}, err
		}
	}
	off, on := phases[0], phases[1]
	v := on.layers
	scaleDurations(perLayer, v, sp.scale())
	v["bench.trace_overhead_ratio"] = quantile(on.lat, 0.5)/quantile(off.lat, 0.5) - 1
	rep := report{values: v, out: off.out, q: off.q, lat: on.lat}
	rep.out.add(on.out)
	rep.q.merge(on.q)
	return rep, nil
}

// offPathLayers is the ledger of a workload that skips every layer: no
// time or work anywhere, and every frame a dense full scan.
func offPathLayers() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	v["roi.full_scan_ratio"] = 1
	v["roi.scan_area_ratio"] = 1
	return v
}

// heapMB is the live Go heap after gcs forced collections. Two drop
// every sync.Pool cache, which the runtime keeps for one cycle.
func heapMB(gcs int) float64 {
	for i := 0; i < gcs; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// retainedHeapMB is the live heap the stack keeps between frames: what it
// holds, plus the scratch its pools hold after one frame or request. The
// pools are emptied first and the settling frame runs with collection
// off, so they hold exactly one frame's scratch whenever the run happens
// to collect.
func retainedHeapMB(st stack) (float64, error) {
	heapMB(2)
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	if err := st.settle(); err != nil {
		return 0, fmt.Errorf("settling frame: %w", err)
	}
	return heapMB(1), nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stamp is the line printed before the result: the machine and its
// measured speed, the toolchain, the commit, the seed and the sample
// counts behind each percentile.
func stamp(workload string, seed int64, lat []float64, q quality, sp *speedometer) string {
	p50 := quantile(lat, 0.5)
	p90 := quantile(lat, 0.9)
	s := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"speed": map[string]any{
			"ns_per_step":     sp.nsPerStep(),
			"ref_ns_per_step": refNsPerStep,
			"bursts":          len(sp.ns),
		},
		"go":     runtime.Version(),
		"commit": commit(),
		"samples": map[string]int{
			"lat":        len(lat),
			"beyond_p50": beyond(lat, p50),
			"beyond_p90": beyond(lat, p90),
		},
		"matches": map[string]int{"tp": q.tp, "fp": q.fp, "fn": q.fn},
	}
	b, _ := json.Marshal(map[string]any{"stamp": s}) // plain values always marshal
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
