package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rt"
)

// ServerConfig tunes the HTTP serving layer.
type ServerConfig struct {
	// Queue bounds the number of admitted /detect requests in flight
	// (waiting for a worker plus being scanned). Beyond it requests are
	// load-shed with 429 + Retry-After instead of queueing without bound —
	// under sustained overload a bounded queue keeps latency flat while an
	// unbounded one turns every request into a timeout. Default 16.
	Queue int
	// DefaultTimeout is the per-request deadline when the client sends no
	// X-Deadline-Ms header. Default 2s.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps the uploaded frame size. Default 32 MiB (an HDTV
	// PGM is ~2 MB).
	MaxBodyBytes int64
	// RetryAfter is the hint returned with 429 (and with 503 when the
	// breaker gives no cooldown remainder). Default 500ms.
	RetryAfter time.Duration
	// Breaker configures the per-detector circuit breaker guarding the
	// supervisor.
	Breaker BreakerConfig
	// Metrics, if non-nil, is the observability registry rendered by
	// GET /metricsz and GET /tracez. Point it at the same *obs.Metrics the
	// supervisor's pipelines record into (SupervisorConfig.Pipeline.Metrics)
	// so stage histograms, frame traces, and HTTP-layer counters come out
	// of one scrape. The server additionally records PGM decode time into
	// its StageDecode histogram. nil serves the frame, HTTP, breaker, and
	// worker counters only.
	Metrics *obs.Metrics
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 500 * time.Millisecond
	}
	return c
}

// ServerStats is a snapshot of the server-level counters.
type ServerStats struct {
	// Accepted counts requests admitted past the queue and the breaker;
	// Shed the 429 load-shed rejections; BreakerRejected the 503 breaker
	// rejections; Completed/Failed the outcomes of accepted requests
	// (rejections count in neither); Draining whether the server is
	// shutting down.
	Accepted        uint64 `json:"accepted"`
	Shed            uint64 `json:"shed"`
	BreakerRejected uint64 `json:"breaker_rejected"`
	Completed       uint64 `json:"completed"`
	Failed          uint64 `json:"failed"`
	Draining        bool   `json:"draining"`
}

// statszResponse is the JSON body of GET /statsz.
type statszResponse struct {
	Server     ServerStats     `json:"server"`
	Breaker    BreakerStats    `json:"breaker"`
	Supervisor SupervisorStats `json:"supervisor"`
	// Cascade reports the early-rejection scorer's counters (windows,
	// accepted, blocks evaluated, per-stage rejects); present only when the
	// server carries a metrics registry and the cascade has seen traffic.
	Cascade *obs.CascadeStats `json:"cascade,omitempty"`
}

// Server is the HTTP front of a Supervisor.
//
// Endpoint contract:
//
//	POST /detect   body: binary PGM (P5) frame.
//	               headers: X-Stream (int, default 0) pins the request to a
//	               worker; X-Deadline-Ms (int) bounds the request.
//	               200: DetectResponse JSON. 400: bad frame. 429: admission
//	               queue full, Retry-After set. 503: breaker open, worker
//	               restarting, or draining, Retry-After set. 504: deadline
//	               exceeded. 500: detector fault.
//	GET  /healthz  200 while the process is alive (liveness).
//	GET  /readyz   200 when serving; 503 while the breaker is open, the
//	               server is draining, or no worker has a live non-wedged
//	               pipeline (readiness — take it out of rotation).
//	GET  /statsz   statszResponse JSON: server, breaker, supervisor stats.
//	GET  /metricsz Prometheus text exposition: the obs registry (stage and
//	               frame latency summaries, arena and cascade counters)
//	               when ServerConfig.Metrics is set, plus the frame and ROI
//	               counters of the /statsz supervisor aggregate, HTTP
//	               admission, breaker, and per-worker restart counters
//	               always.
//	GET  /tracez   tracezResponse JSON: the slowest frames retained by the
//	               trace ring, slowest first (empty without Metrics).
//
// Retry-After values carry fractional seconds (e.g. "0.250", never below
// "0.001"); integer-second parsers read them as a standard hint after
// truncation. The /detect request and answer forms are the codec in
// wire.go, shared with the gateway's front and with both clients.
type Server struct {
	cfg     ServerConfig
	sup     *Supervisor
	breaker *Breaker
	mux     *http.ServeMux

	sem chan struct{} // admission queue slots

	mu        sync.Mutex
	inflight  int
	draining  bool
	accepted  uint64
	shed      uint64
	rejected  uint64
	completed uint64
	failed    uint64
}

// NewServer wraps a supervisor. The caller keeps ownership of the
// supervisor (close it after the server has drained).
func NewServer(sup *Supervisor, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		sup:     sup,
		breaker: NewBreaker(cfg.Breaker),
		sem:     make(chan struct{}, cfg.Queue),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/detect", s.handleDetect)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.HandleFunc("/tracez", s.handleTracez)
	return s
}

// Handler returns the HTTP handler serving the endpoint contract above.
func (s *Server) Handler() http.Handler { return s.mux }

// Breaker exposes the server's circuit breaker (for transition logging).
func (s *Server) Breaker() *Breaker { return s.breaker }

// Stats returns the server-level counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerStats{
		Accepted:        s.accepted,
		Shed:            s.shed,
		BreakerRejected: s.rejected,
		Completed:       s.completed,
		Failed:          s.failed,
		Draining:        s.draining,
	}
}

// beginRequest registers an in-flight request (for the drain counter)
// unless the server is draining.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// endRequest retires an in-flight request. Only admitted requests (past
// the queue and the breaker) count toward completed/failed — shed and
// breaker-rejected requests are tallied by their own counters.
func (s *Server) endRequest(admitted bool, err error) {
	s.mu.Lock()
	s.inflight--
	if admitted {
		if err == nil {
			s.completed++
		} else {
			s.failed++
		}
	}
	s.mu.Unlock()
}

// Shutdown drains the server: new /detect requests are refused with 503
// (and /readyz fails) while requests already admitted run to completion.
// It returns nil once the last in-flight request finished, or the context
// error if the drain deadline expired first. The supervisor is left
// running; close it after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain incomplete, %d requests in flight: %w", n, ctx.Err())
		case <-tick.C:
		}
	}
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if RejectNonPost(w, r) {
		return
	}
	if !s.beginRequest() {
		WriteUnavailable(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, "draining")
		return
	}
	var reqErr error
	admitted := false
	defer func() { s.endRequest(admitted, reqErr) }()

	// Admission: a full queue sheds immediately — the client's retry with
	// backoff is the system's flow control.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.mu.Lock()
		s.shed++
		s.mu.Unlock()
		reqErr = errors.New("shed")
		WriteUnavailable(w, http.StatusTooManyRequests, s.cfg.RetryAfter, "admission queue full")
		return
	}

	// Circuit breaker: while the detector is known-broken, fail fast with
	// the cooldown remainder as the retry hint.
	if retryAfter, err := s.breaker.Allow(); err != nil {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		reqErr = err
		WriteUnavailable(w, http.StatusServiceUnavailable, retryAfter, "circuit breaker open")
		return
	}
	admitted = true
	s.mu.Lock()
	s.accepted++
	s.mu.Unlock()

	// Decode is recorded straight into the shared stage histogram (it is
	// atomic); the per-frame trace stages come from the pipeline's
	// recorder and therefore do not include decode.
	var decode *obs.Histogram
	if m := s.cfg.Metrics; m != nil {
		decode = &m.Stage[obs.StageDecode]
	}
	stream, timeout, frame, err := ReadDetect(w, r, s.cfg.DefaultTimeout, s.cfg.MaxBodyBytes, decode)
	if err != nil {
		reqErr = err
		s.breaker.Record(nil) // a bad request is the client's fault, not a detector failure
		return
	}

	// Deadline propagation: the request context (cancelled when the client
	// goes away) bounded by the per-request budget.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	dets, err := s.sup.Do(ctx, stream, frame)
	reqErr = err

	// Client disconnects are not detector failures; everything else an
	// admitted request observes feeds the breaker.
	if errors.Is(err, context.Canceled) {
		s.breaker.Record(nil)
	} else {
		s.breaker.Record(err)
	}

	switch {
	case err == nil:
		WriteDetections(w, stream, dets)
	case errors.Is(err, ErrWorkerRestarting), errors.Is(err, ErrSupervisorClosed):
		WriteUnavailable(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, err.Error())
	case errors.Is(err, rt.ErrHung):
		// The frame's scan hung and its worker is being torn down and
		// rebuilt; retry lands on the fresh incarnation (or sheds).
		WriteUnavailable(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		// Client went away; the status code is moot but 499-style closure
		// needs some answer for conforming middleware.
		WriteError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		var pe *rt.PanicError
		if errors.As(err, &pe) {
			WriteError(w, http.StatusInternalServerError, "detector panic: "+pe.Error())
			return
		}
		WriteError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Ready reports whether the server would pass its readiness probe, and the
// reason when it would not: draining, breaker open, or every worker
// pipeline dead (restarting) or wedged. It is the programmatic form of
// GET /readyz, shared with the chaos harness's recovery-SLO checker.
func (s *Server) Ready() (bool, string) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	switch {
	case draining:
		return false, "draining"
	case s.breaker.State() == BreakerOpen:
		return false, "circuit breaker open"
	case s.sup.Running() == 0:
		return false, "no workers running"
	default:
		return true, ""
	}
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if ready, reason := s.Ready(); !ready {
		WriteUnavailable(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, reason)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := statszResponse{
		Server:     s.Stats(),
		Breaker:    s.breaker.Stats(),
		Supervisor: s.sup.Stats(),
	}
	if m := s.cfg.Metrics; m != nil {
		if cs := m.CascadeSnapshot(); cs.Windows > 0 {
			resp.Cascade = &cs
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetricsz renders the Prometheus text scrape: the shared obs
// registry first (when configured), then the frame counters, HTTP
// admission, breaker, and supervisor counters, which exist regardless of
// the registry. Every frame counter is read from the supervisor aggregate
// that /statsz serves, so the two endpoints cannot disagree.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if m := s.cfg.Metrics; m != nil {
		m.WritePrometheus(w, "pd")
	}
	st := s.Stats()
	sup := s.sup.Stats()
	agg := sup.Aggregate
	for _, c := range [...]struct {
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
		{"pd_http_accepted_total", st.Accepted},
		{"pd_http_shed_total", st.Shed},
		{"pd_http_breaker_rejected_total", st.BreakerRejected},
		{"pd_http_completed_total", st.Completed},
		{"pd_http_failed_total", st.Failed},
	} {
		fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
		obs.WriteCounterLine(w, c.name, "", c.v)
	}
	bs := s.breaker.Stats()
	fmt.Fprintf(w, "# TYPE pd_breaker_trips_total counter\n")
	obs.WriteCounterLine(w, "pd_breaker_trips_total", "", bs.Trips)
	fmt.Fprintf(w, "# TYPE pd_breaker_probes_total counter\n")
	obs.WriteCounterLine(w, "pd_breaker_probes_total", "", bs.Probes)
	fmt.Fprintf(w, "# TYPE pd_breaker_recoveries_total counter\n")
	obs.WriteCounterLine(w, "pd_breaker_recoveries_total", "", bs.Recoveries)
	fmt.Fprintf(w, "# TYPE pd_breaker_open gauge\n")
	open := 0.0
	if s.breaker.State() == BreakerOpen {
		open = 1
	}
	obs.WriteGaugeLine(w, "pd_breaker_open", "", open)
	fmt.Fprintf(w, "# TYPE pd_worker_restarts_total counter\n")
	for _, ws := range sup.Workers {
		obs.WriteCounterLine(w, "pd_worker_restarts_total", fmt.Sprintf("worker=%q", strconv.Itoa(ws.ID)), ws.Restarts)
	}
	fmt.Fprintf(w, "# TYPE pd_worker_wedges_total counter\n")
	for _, ws := range sup.Workers {
		obs.WriteCounterLine(w, "pd_worker_wedges_total", fmt.Sprintf("worker=%q", strconv.Itoa(ws.ID)), ws.Wedges)
	}
	fmt.Fprintf(w, "# TYPE pd_workers_running gauge\n")
	obs.WriteGaugeLine(w, "pd_workers_running", "", float64(s.sup.Running()))
	fmt.Fprintf(w, "# TYPE pd_frames_inflight gauge\n")
	obs.WriteGaugeLine(w, "pd_frames_inflight", "", float64(agg.InFlight))
	if agg.ROIScans > 0 {
		fmt.Fprintf(w, "# TYPE pd_roi_mean_regions gauge\n")
		obs.WriteGaugeLine(w, "pd_roi_mean_regions", "", float64(agg.ROIRegions)/float64(agg.ROIScans))
	}
	var wedged, roiActive int
	for _, ws := range sup.Workers {
		if ws.Pipeline.Wedged {
			wedged++
		}
		if ws.Pipeline.ROIRung {
			roiActive++
		}
	}
	fmt.Fprintf(w, "# TYPE pd_wedged_pipelines gauge\n")
	obs.WriteGaugeLine(w, "pd_wedged_pipelines", "", float64(wedged))
	fmt.Fprintf(w, "# TYPE pd_roi_active_pipelines gauge\n")
	obs.WriteGaugeLine(w, "pd_roi_active_pipelines", "", float64(roiActive))
}

// tracezResponse is the JSON body of GET /tracez.
type tracezResponse struct {
	// Slowest holds the retained frame traces, slowest first.
	Slowest []obs.FrameTrace `json:"slowest"`
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	resp := tracezResponse{Slowest: []obs.FrameTrace{}}
	if m := s.cfg.Metrics; m != nil {
		resp.Slowest = m.Traces.Snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}
