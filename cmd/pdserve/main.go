// Command pdserve runs the fault-tolerant multi-stream detection service:
// a supervisor of worker pipelines behind the internal/serve HTTP layer
// (bounded admission queue, circuit breaker, health endpoints).
//
// Usage:
//
//	pdserve -model pedestrian.model -addr :8080 -workers 4 -queue 16
//
// POST a binary PGM frame to /detect (headers: X-Stream pins the camera
// stream to a worker, X-Deadline-Ms bounds the request); GET /healthz,
// /readyz and /statsz for liveness, readiness and stats; GET /metricsz
// for the Prometheus scrape and /tracez for the slowest-frame traces.
// -pprof mounts net/http/pprof under /debug/pprof/. SIGINT/SIGTERM
// drains in-flight requests under -drain before exiting.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers gated behind -pprof in main
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roi"
	"repro/internal/rt"
	"repro/internal/serve"
	"repro/internal/svm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdserve: ")
	var (
		modelPath = flag.String("model", "pedestrian.model", "trained model file")
		addr      = flag.String("addr", ":8080", "listen address")
		mode      = flag.String("mode", "feature", "pyramid mode: image, feature, chained, fixed, octave")
		step      = flag.Float64("step", 1.1, "pyramid scale step")
		threshold = flag.Float64("threshold", 0, "SVM decision threshold")
		nms       = flag.Float64("nms", 0.3, "NMS IoU (<= 0 disables)")

		cascadeCal = flag.Bool("cascade-calibrated", false, "staged scoring with calibrated per-stage floors (needs a model trained with pdtrain -cascade-calibrate)")

		workers = flag.Int("workers", 1, "supervised worker pipelines (streams pin by ID modulo this)")
		fps     = flag.Float64("fps", 30, "per-worker frame budget (sets the pipeline deadline)")
		queue   = flag.Int("queue", 16, "admission queue depth (beyond it requests shed with 429)")
		timeout = flag.Duration("timeout", 2*time.Second, "default per-request deadline (X-Deadline-Ms overrides)")
		hang    = flag.Duration("hang-timeout", 0, "liveness watchdog: abandon a scan stuck this long and restart the worker (0 derives 4x the frame deadline, negative disables)")

		roiOn     = flag.Bool("roi", false, "add a track-guided ROI rung to each worker's degradation ladder (restricted scans around live tracks when overloaded)")
		roiEvery  = flag.Int("roi-full-every", roi.DefaultFullEvery, "ROI rung dense-scan cadence: a full scan every K frames bounds new-entrant latency to K-1 frames")
		roiMargin = flag.Int("roi-margin", roi.DefaultMarginPx, "ROI rung dilation in pixels around each tracked box")

		breakerFailures = flag.Int("breaker-failures", 5, "consecutive detector failures that open the circuit breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before the half-open probe")

		restartBackoff    = flag.Duration("restart-backoff", 50*time.Millisecond, "initial worker restart backoff (doubles per consecutive restart)")
		restartBackoffMax = flag.Duration("restart-backoff-max", 5*time.Second, "worker restart backoff cap")
		restartAfter      = flag.Int("restart-after-errors", 16, "consecutive erroring frames that restart a worker (negative disables)")

		drain = flag.Duration("drain", 10*time.Second, "graceful shutdown drain deadline")
		pprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	model, err := svm.Load(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ScaleStep = *step
	cfg.Threshold = *threshold
	cfg.NMSOverlap = *nms
	if *cascadeCal {
		cfg.Cascade = core.CascadeCalibrated
	}
	if cfg.Mode, err = core.ParsePyramidMode(*mode); err != nil {
		log.Fatal(err)
	}

	// One shared metrics registry: every worker pipeline records into it
	// (stage histograms and counters are atomic; each pipeline has its own
	// frame-scratch recorder lane) and /metricsz scrapes it.
	metrics := obs.NewMetrics()

	// Every worker gets its own detector so a panic in one cannot poison
	// shared state in another, and a restart rebuilds from scratch.
	factory := func(worker int) (*core.Detector, error) {
		return core.NewDetector(model, cfg)
	}
	var roiCfg *roi.Config
	if *roiOn {
		roiCfg = &roi.Config{FullEvery: *roiEvery, MarginPx: *roiMargin}
	}
	sup, err := serve.NewSupervisor(factory, serve.SupervisorConfig{
		Workers:            *workers,
		Pipeline:           rt.Config{FPS: *fps, HangTimeout: *hang, ROI: roiCfg, Metrics: metrics},
		RestartBackoff:     *restartBackoff,
		RestartBackoffMax:  *restartBackoffMax,
		RestartAfterErrors: *restartAfter,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.NewServer(sup, serve.ServerConfig{
		Queue:          *queue,
		DefaultTimeout: *timeout,
		Metrics:        metrics,
		Breaker: serve.BreakerConfig{
			FailureThreshold: *breakerFailures,
			Cooldown:         *breakerCooldown,
			OnTransition: func(from, to serve.BreakerState) {
				log.Printf("circuit breaker: %s -> %s", from, to)
			},
		},
	})

	// The pprof import registers its handlers on http.DefaultServeMux;
	// they are only reachable when -pprof routes /debug/pprof/ there.
	handler := srv.Handler()
	if *pprof {
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving %s (%s pyramid) on %s: %d workers at %.1f fps, queue %d, breaker %d/%s",
		*modelPath, *mode, *addr, *workers, *fps, *queue, *breakerFailures, *breakerCooldown)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (deadline %s)", sig, *drain)
	case err := <-errc:
		sup.Close()
		log.Fatal(err)
	}

	// Shutdown chain: stop accepting requests and drain the app layer,
	// then the HTTP layer, then tear down the workers.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	sup.Close()
	st := sup.Stats()
	log.Printf("final: %+v", srv.Stats())
	log.Printf("aggregate pipeline: %s", st.Aggregate)
	if s := metrics.Summary(); s != "" {
		log.Printf("stage latencies:\n%s", s)
	}
}
