// Command pdbench runs the repo's headline micro-benchmarks — the parallel
// detection hot path, the zero-copy window and span scorers, and the serving-layer
// round trip — and reports the results in machine-readable JSON so CI and
// PR logs can diff performance across revisions without scraping `go test
// -bench` text output.
//
// Usage:
//
//	pdbench                      # human-readable table on stdout
//	pdbench -json BENCH_PR4.json # also write the JSON report
//	pdbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The models are synthetic (random or all-zero weights): the quantities of
// interest are ns/op and allocs/op of the scanning and serving machinery,
// not detection accuracy.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/featpyr"
	"repro/internal/geom"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/roi"
	"repro/internal/rt"
	"repro/internal/serve"
	"repro/internal/svm"
)

// benchResult is one benchmark in the JSON report.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// report is the full JSON document written by -json. Commit, CPU,
// SpanKernel and CellKernel say which revision, machine and kernels the
// numbers belong to: the dense scan runs several times faster with the
// AVX2 span kernel, and the cell front end about three times faster with
// the AVX2 cell kernel.
type report struct {
	Commit     string        `json:"commit"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	CPU        string        `json:"cpu"`
	SpanKernel bool          `json:"span_kernel_avx2"`
	CellKernel bool          `json:"cell_kernel_avx2"`
	Timestamp  string        `json:"timestamp"`
	Results    []benchResult `json:"results"`
}

// cpuModel returns the CPU model name from /proc/cpuinfo, or "" where that
// file does not exist.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// commit is the VCS revision the binary was built from, with "+dirty" for
// a modified tree, or "unknown" when the build could not see one: go run
// does not stamp it, so build with go build for a stamped report.
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdbench: ")
	jsonPath := flag.String("json", "", "write the JSON report to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects out of the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	rep := report{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		SpanKernel: hog.SpanKernel(),
		CellKernel: hog.CellKernel(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("commit %s, cpu %q, AVX2 span kernel %v, AVX2 cell kernel %v\n",
		rep.Commit, rep.CPU, rep.SpanKernel, rep.CellKernel)
	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		res := benchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-32s %10d iters  %14.0f ns/op  %8d allocs/op  %10d B/op\n",
			res.Name, res.Iterations, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	}

	run("ComputeCells/reference", benchComputeCellsRef)
	run("ComputeCells/fused", benchComputeCellsFused(1))
	if n := runtime.GOMAXPROCS(0); n > 1 {
		run(fmt.Sprintf("ComputeCells/fused/workers=%d", n), benchComputeCellsFused(n))
	}
	// The cell kernel's own rows: 1080p cells at workers=1 on each path
	// (the vector row runs the scalar path too on a CPU without AVX2).
	run("Cells/1080p/vector", benchCells1080p(true))
	run("Cells/1080p/scalar", benchCells1080p(false))
	run("Normalize/into", benchNormalizeInto(1))
	if n := runtime.GOMAXPROCS(0); n > 1 {
		run(fmt.Sprintf("Normalize/into/workers=%d", n), benchNormalizeInto(n))
	}
	run("FrontEnd/1080p/workers=1", benchFrontEnd(1))
	if n := runtime.GOMAXPROCS(0); n > 1 {
		run(fmt.Sprintf("FrontEnd/1080p/workers=%d", n), benchFrontEnd(n))
	}
	run("DetectParallel/workers=1", benchDetect(core.FeaturePyramid, 1, false))
	if n := runtime.GOMAXPROCS(0); n > 1 {
		run(fmt.Sprintf("DetectParallel/workers=%d", n), benchDetect(core.FeaturePyramid, 0, false))
	}
	run("DetectOctave/workers=1", benchDetect(core.OctavePyramid, 1, false))
	run("ScoreWindow/zero-copy", benchScoreWindow)
	run("ScoreSpan", benchScoreSpan)
	run("DetectCascade/dense", benchDetectCascade(core.CascadeOff))
	run("DetectCascade/calibrated", benchDetectCascade(core.CascadeCalibrated))
	run("DetectROI/dense", benchDetectROI(false))
	run("DetectROI/roi", benchDetectROI(true))
	run("ServeRoundTrip", benchServeRoundTrip)

	// Observability overhead: the same single-worker scan with the obs
	// recorder attached. The tentpole's contract is that instrumentation
	// stays in the noise (<2% on ns/op, zero extra allocs).
	run("DetectParallel/workers=1/metrics=on", benchDetect(core.FeaturePyramid, 1, true))
	var off, on *benchResult
	for i := range rep.Results {
		switch rep.Results[i].Name {
		case "DetectParallel/workers=1":
			off = &rep.Results[i]
		case "DetectParallel/workers=1/metrics=on":
			on = &rep.Results[i]
		}
	}
	if off != nil && on != nil && off.NsPerOp > 0 {
		pct := (on.NsPerOp - off.NsPerOp) / off.NsPerOp * 100
		fmt.Printf("%-32s %+.2f%% ns/op, %+d allocs/op\n",
			"obs overhead (metrics on-off)", pct, on.AllocsPerOp-off.AllocsPerOp)
	}

	// Calibrated-cascade speedup on the clutter-negative workload at
	// workers=1.
	var cd, cc *benchResult
	for i := range rep.Results {
		switch rep.Results[i].Name {
		case "DetectCascade/dense":
			cd = &rep.Results[i]
		case "DetectCascade/calibrated":
			cc = &rep.Results[i]
		}
	}
	if cd != nil && cc != nil && cc.NsPerOp > 0 {
		fmt.Printf("%-32s %.2fx ns/op over dense\n", "cascade speedup (calibrated)", cd.NsPerOp/cc.NsPerOp)
	}

	// ROI-scheduled speedup on the tracked workload (ISSUE 10 acceptance:
	// >= 2x over dense at workers=1, full-scan cadence amortized in).
	var rd, rr *benchResult
	for i := range rep.Results {
		switch rep.Results[i].Name {
		case "DetectROI/dense":
			rd = &rep.Results[i]
		case "DetectROI/roi":
			rr = &rep.Results[i]
		}
	}
	if rd != nil && rr != nil && rr.NsPerOp > 0 {
		fmt.Printf("%-32s %.2fx ns/op over dense\n", "roi speedup (scheduled)", rd.NsPerOp/rr.NsPerOp)
	}

	if *jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *jsonPath)
	}
}

// randFrame fills a frame with deterministic noise so the scan does real
// gradient work instead of skating over flat zeros.
func randFrame(w, h int, seed int64) *imgproc.Gray {
	g := imgproc.NewGray(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

// benchComputeCellsRef benchmarks the retained reference cell histogrammer
// (per-pixel Atan2/Hypot) on a VGA frame — the front-end baseline the fused
// pass is measured against.
func benchComputeCellsRef(b *testing.B) {
	frame := randFrame(640, 480, 23)
	cfg := hog.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hog.ReferenceComputeCells(frame, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchComputeCellsFused benchmarks the fused tangent-threshold front end
// through a reusable scratch arena at the given band-worker count.
func benchComputeCellsFused(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		frame := randFrame(640, 480, 23)
		cfg := hog.DefaultConfig()
		s := hog.NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hog.ComputeCellsInto(context.Background(), frame, cfg, s, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchCells1080p benchmarks the cell histograms of a 1920x1080 frame
// through a reused scratch at workers=1, with the vector cell kernel on or
// off; the two paths give bit-identical histograms.
func benchCells1080p(vector bool) func(b *testing.B) {
	return func(b *testing.B) {
		defer hog.SetCellKernel(hog.SetCellKernel(vector))
		frame := randFrame(1920, 1080, 29)
		cfg := hog.DefaultConfig()
		s := hog.NewScratch()
		ctx := context.Background()
		if _, err := hog.ComputeCellsInto(ctx, frame, cfg, s, 1); err != nil { // grow the scratch
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hog.ComputeCellsInto(ctx, frame, cfg, s, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchNormalizeInto benchmarks arena-backed block normalization of a VGA
// cell grid at the given block-row worker count.
func benchNormalizeInto(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := hog.DefaultConfig()
		grid, err := hog.ComputeCells(randFrame(640, 480, 23), cfg)
		if err != nil {
			b.Fatal(err)
		}
		var fm hog.FeatureMap
		if err := hog.NormalizeInto(grid, cfg, &fm, workers); err != nil { // size fm
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := hog.NormalizeInto(grid, cfg, &fm, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFrontEnd benchmarks everything the detector runs before the scan on
// the paper's 1920x1080 operating point — the fused HOG front end into a
// reused scratch, then the full feature pyramid (scale step 1.1, down to
// the 64x128 window) into a reused level store — at the given worker
// count, after one untimed frame has grown the buffers. Steady state
// allocates only the fan-out bookkeeping.
func benchFrontEnd(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		frame := randFrame(1920, 1080, 29)
		cfg := core.DefaultConfig()
		s := hog.NewScratch()
		var p featpyr.Pyramid
		wbx, wby := cfg.HOG.WindowBlocks(cfg.HOG.WindowCells(cfg.WindowW, cfg.WindowH))
		ctx := context.Background()
		frontEnd := func() {
			base, err := hog.ComputeInto(ctx, frame, cfg.HOG, s, workers)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Build(ctx, base, cfg.ScaleStep, wbx, wby, 0, 0, cfg.Scale, workers); err != nil {
				b.Fatal(err)
			}
		}
		frontEnd() // grow the scratch and the level store
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frontEnd()
		}
	}
}

// benchDetect benchmarks the full multi-scale scan of a VGA frame in the
// given pyramid mode with the given worker count (0 = GOMAXPROCS) and a
// random-weight model. metrics attaches an obs recorder to measure the
// instrumentation overhead.
func benchDetect(mode core.PyramidMode, workers int, metrics bool) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Mode = mode
		cfg.Workers = workers
		if metrics {
			cfg.Metrics = obs.NewDetectRecorder(obs.NewMetrics())
		}
		rng := rand.New(rand.NewSource(21))
		model := &svm.Model{W: make([]float64, cfg.DescriptorLen())}
		for i := range model.W {
			model.W[i] = rng.NormFloat64() * 0.01
		}
		det, err := core.NewDetector(model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		frame := randFrame(640, 480, 22)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := det.Detect(frame); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchScoreWindow benchmarks the zero-copy strided window scorer on one
// 4608-dim window (mirrors BenchmarkScoreWindow/zero-copy in bench_test.go).
func benchScoreWindow(b *testing.B) {
	fm, err := hog.Compute(randFrame(640, 480, 15), hog.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	w := make([]float64, 4608)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := fm.ScoreWindow(w, i%(fm.BlocksX-8), i%(fm.BlocksY-16), 8, 16); !ok {
			b.Fatal("window rejected")
		}
	}
}

// benchScoreSpan benchmarks ScoreSpan over full level rows of the same
// map; one op is one window, so ns/op compares directly with
// ScoreWindow/zero-copy (mirrors BenchmarkScoreWindow/span in
// bench_test.go).
func benchScoreSpan(b *testing.B) {
	fm, err := hog.Compute(randFrame(640, 480, 15), hog.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	w := make([]float64, 4608)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	nx, rows := fm.BlocksX-8+1, fm.BlocksY-16+1
	dst := make([]float64, nx)
	b.ReportAllocs()
	b.ResetTimer()
	for done, by := 0, 0; done < b.N; by = (by + 1) % rows {
		n := min(nx, b.N-done)
		if !fm.ScoreSpan(w, 0, by, 8, 16, dst[:n]) {
			b.Fatal("span rejected")
		}
		done += n
	}
}

// benchDetectCascade benchmarks the single-worker multi-scale scan of a
// clutter-only VGA frame with the given cascade mode and a concentrated-mass
// model (per-row amplitude 0.02*0.55^r, a synthetic shape a trained model
// does not have); the report compares ns/op of dense and calibrated.
func benchDetectCascade(mode core.CascadeMode) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Mode = core.FeaturePyramid
		cfg.Workers = 1
		cfg.Threshold = 0.5
		cfg.Cascade = mode
		cx, cy := cfg.HOG.WindowCells(cfg.WindowW, cfg.WindowH)
		wbx, wby := cfg.HOG.WindowBlocks(cx, cy)
		bl := cfg.HOG.BlockLen()
		rowLen := wbx * bl
		rng := rand.New(rand.NewSource(47))
		model := &svm.Model{W: make([]float64, wby*rowLen)}
		for r := 0; r < wby; r++ {
			a := 0.02 * math.Pow(0.55, float64(r))
			for i := r * rowLen; i < (r+1)*rowLen; i++ {
				model.W[i] = a * rng.NormFloat64()
			}
		}
		if mode == core.CascadeCalibrated {
			// Floors fitted on one synthetic positive perfectly aligned with
			// the weights (per-block 0.95 * w_b/||w_b||).
			casc, err := svm.NewCascade(model, wbx, wby, bl)
			if err != nil {
				b.Fatal(err)
			}
			pos := make([]float64, len(model.W))
			for blk := 0; blk+bl <= len(model.W); blk += bl {
				var ss float64
				for _, v := range model.W[blk : blk+bl] {
					ss += v * v
				}
				if n := math.Sqrt(ss); n > 0 {
					for i := blk; i < blk+bl; i++ {
						pos[i] = 0.95 * model.W[i] / n
					}
				}
			}
			floors, err := casc.Calibrate(model, [][]float64{pos}, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			model.Calib = &svm.CascadeCalib{Stages: wby, Margin: 0.05, Thresholds: floors}
		}
		det, err := core.NewDetector(model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		frame := randFrame(640, 480, 48)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := det.Detect(frame); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchDetectROI benchmarks the single-worker scan of the paper's HDTV
// frame (1920x1080) under the temporal ROI scheduler against the same scan
// run dense. The track set is two pedestrian-sized boxes a tracker would
// carry between frames of a driving clip. One op is one FullEvery-frame
// cadence cycle — for roi that is one dense full scan plus FullEvery-1
// restricted scans — so the dense/roi ns/op ratio is exactly the
// steady-state per-frame speedup of a tracked scene with the cadence's
// full scans amortized in, independent of the iteration count the
// benchmark harness settles on.
func benchDetectROI(restricted bool) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Mode = core.FeaturePyramid
		cfg.Workers = 1
		rs := core.NewRegionSet()
		if restricted {
			cfg.Regions = rs
		}
		rng := rand.New(rand.NewSource(21))
		model := &svm.Model{W: make([]float64, cfg.DescriptorLen())}
		for i := range model.W {
			model.W[i] = rng.NormFloat64() * 0.01
		}
		det, err := core.NewDetector(model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		frame := randFrame(1920, 1080, 22)
		tracks := []geom.Rect{
			geom.XYWH(420, 480, 64, 128),
			geom.XYWH(1380, 420, 80, 160),
		}
		sched, err := roi.New(roi.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cycle := sched.Config().FullEvery
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for f := 0; f < cycle; f++ {
				if restricted {
					plan := sched.Plan(tracks, frame.W, frame.H)
					if plan.Full {
						rs.Clear()
					} else {
						rs.Set(plan.Regions)
					}
				}
				if _, err := det.Detect(frame); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchServeRoundTrip benchmarks one request through the whole serving
// stack: client HTTP round trip, admission, breaker, supervisor dispatch,
// pipeline scan with an all-zero model.
func benchServeRoundTrip(b *testing.B) {
	factory := func(worker int) (*core.Detector, error) {
		cfg := core.DefaultConfig()
		cfg.Mode = core.FeaturePyramid
		cfg.ScaleStep = 1.3
		cfg.Workers = 1
		return core.NewDetector(&svm.Model{W: make([]float64, cfg.DescriptorLen())}, cfg)
	}
	sup, err := serve.NewSupervisor(factory, serve.SupervisorConfig{
		Workers:  1,
		Pipeline: rt.Config{Deadline: 10 * time.Second},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sup.Close()
	ts := httptest.NewServer(serve.NewServer(sup, serve.ServerConfig{}).Handler())
	defer ts.Close()
	client := serve.NewClient(ts.URL, serve.ClientConfig{})
	frame := imgproc.NewGray(128, 256)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Detect(ctx, i, frame); err != nil {
			b.Fatal(err)
		}
	}
}
