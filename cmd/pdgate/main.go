// Command pdgate runs the resilient multi-replica gateway
// (internal/gateway) in front of N detection replicas: power-of-two-choices
// least-in-flight balancing with stream affinity, latency-quantile hedged
// requests, token-bucket hedge/retry budgets, and health-aware outlier
// ejection with probed readmission.
//
// Two replica sources, combinable:
//
//	pdgate -backends http://a:8080,http://b:8080   # remote pdserve replicas
//	pdgate -replicas 3 -model pedestrian.model     # in-process replica stacks
//
// With -replicas and no -model the replicas run an all-zero synthetic model
// — useful for exercising the gateway layer itself. The gateway speaks the
// same wire protocol as pdserve (POST a PGM to /detect with X-Stream /
// X-Deadline-Ms; GET /healthz, /readyz, /statsz, /metricsz), so serve.Client
// and every existing tool point at it unchanged. Both ends of that protocol
// are one codec in internal/serve (wire.go): the gateway's front reads and
// answers /detect with it, and its remote replicas are reached through
// serve.PostDetect, the round trip serve.Client retries around.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/serve"
	"repro/internal/svm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdgate: ")
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		backs    = flag.String("backends", "", "comma-separated remote replica base URLs")
		replicas = flag.Int("replicas", 0, "in-process replica stacks to boot (added after -backends)")

		modelPath = flag.String("model", "", "trained model for in-process replicas (empty: all-zero synthetic model)")
		workers   = flag.Int("workers", 1, "worker pipelines per in-process replica")
		fps       = flag.Float64("fps", 30, "per-worker frame budget for in-process replicas")

		hedgeQuantile = flag.Float64("hedge-quantile", 0.95, "latency quantile that sets the hedge delay")
		hedgeFloor    = flag.Duration("hedge-floor", 5*time.Millisecond, "hedge delay floor")
		hedgeCeil     = flag.Duration("hedge-ceil", time.Second, "hedge delay ceiling (also the pre-warmup delay)")
		hedgeRatio    = flag.Float64("hedge-ratio", 0.1, "hedge tokens earned per successful request")
		hedgeBurst    = flag.Int("hedge-burst", 8, "hedge token bucket size")
		retryRatio    = flag.Float64("retry-ratio", 0.1, "retry tokens earned per successful request")
		retryBurst    = flag.Int("retry-burst", 8, "retry token bucket size")

		ejectAfter    = flag.Int("eject-after", 3, "consecutive failures that eject a replica")
		ejectBackoff  = flag.Duration("eject-backoff", time.Second, "first ejection backoff (doubles per episode)")
		ejectMax      = flag.Duration("eject-backoff-max", 30*time.Second, "ejection backoff cap")
		probation     = flag.Int("probation", 3, "clean results a probed replica needs to fully rejoin")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "active health probe cadence")

		timeout = flag.Duration("timeout", 2*time.Second, "default per-request deadline (X-Deadline-Ms overrides)")
		drain   = flag.Duration("drain", 10*time.Second, "graceful shutdown drain deadline")
	)
	flag.Parse()

	var backends []gateway.Backend
	var names []string
	for _, base := range strings.Split(*backs, ",") {
		base = strings.TrimSpace(base)
		if base == "" {
			continue
		}
		backends = append(backends, &gateway.HTTPBackend{Base: base})
		names = append(names, base)
	}

	// In-process replicas: each gets its own supervisor + server stack (own
	// detectors, own breaker) so one replica's faults stay its own; the
	// shared metrics registry only aggregates observability.
	var sups []*serve.Supervisor
	if *replicas > 0 {
		factory, desc, err := detectorFactory(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		metrics := obs.NewMetrics()
		for i := 0; i < *replicas; i++ {
			sup, err := serve.NewSupervisor(factory, serve.SupervisorConfig{
				Workers:  *workers,
				Pipeline: rt.Config{FPS: *fps, Metrics: metrics},
			})
			if err != nil {
				log.Fatal(err)
			}
			sups = append(sups, sup)
			srv := serve.NewServer(sup, serve.ServerConfig{Metrics: metrics})
			backends = append(backends, &gateway.LocalBackend{Sup: sup, Srv: srv})
			names = append(names, desc)
		}
	}
	if len(backends) == 0 {
		log.Fatal("no replicas: pass -backends URLs and/or -replicas N")
	}

	gw, err := gateway.New(backends, gateway.Config{
		EjectAfter:         *ejectAfter,
		EjectBackoff:       *ejectBackoff,
		EjectBackoffMax:    *ejectMax,
		ProbationSuccesses: *probation,
		ProbeInterval:      *probeInterval,
		HedgeQuantile:      *hedgeQuantile,
		HedgeFloor:         *hedgeFloor,
		HedgeCeil:          *hedgeCeil,
		HedgeRatio:         *hedgeRatio,
		HedgeBurst:         *hedgeBurst,
		RetryRatio:         *retryRatio,
		RetryBurst:         *retryBurst,
		Logf:               log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := gateway.NewServer(gw, gateway.ServerConfig{DefaultTimeout: *timeout})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	for i, n := range names {
		log.Printf("replica r%d: %s", i, n)
	}
	log.Printf("gateway on %s: %d replicas, hedge p%.0f in [%s, %s], eject after %d, budgets %d+%.2f/req",
		*addr, len(backends), *hedgeQuantile*100, *hedgeFloor, *hedgeCeil, *ejectAfter, *hedgeBurst, *hedgeRatio)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (deadline %s)", sig, *drain)
	case err := <-errc:
		teardown(gw, sups)
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	st := gw.Stats()
	teardown(gw, sups)
	log.Printf("final: accepted=%d answered=%d hedges=%d (wins %d) retries=%d ejections=%d rejoins=%d",
		st.Accepted, st.Answered, st.HedgesFired, st.HedgeWins, st.Retries, st.Ejections, st.Rejoins)
	for _, r := range st.Replicas {
		log.Printf("  %s [%s]: ok=%d fail=%d hedges=%d p50=%.1fms p99=%.1fms",
			r.Name, r.State, r.Successes, r.Failures, r.Hedges, r.P50*1e3, r.P99*1e3)
	}
}

// detectorFactory builds the per-worker detector constructor for
// in-process replicas: a trained model when given, otherwise the all-zero
// synthetic model (full scan path, no detections — the gateway is the
// subject, not accuracy).
func detectorFactory(modelPath string) (serve.DetectorFactory, string, error) {
	cfg := core.DefaultConfig()
	cfg.Mode = core.FeaturePyramid
	cfg.ScaleStep = 1.3
	cfg.Workers = 1
	var model *svm.Model
	desc := "in-process (synthetic model)"
	if modelPath != "" {
		m, err := svm.Load(modelPath)
		if err != nil {
			return nil, "", err
		}
		model = m
		desc = "in-process (" + modelPath + ")"
	} else {
		model = &svm.Model{W: make([]float64, cfg.DescriptorLen())}
	}
	return func(worker int) (*core.Detector, error) {
		return core.NewDetector(model, cfg)
	}, desc, nil
}

func teardown(gw *gateway.Gateway, sups []*serve.Supervisor) {
	gw.Close()
	for _, sup := range sups {
		sup.Close()
	}
}
