package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// ServerConfig tunes the gateway's HTTP front.
type ServerConfig struct {
	// DefaultTimeout bounds a /detect request with no X-Deadline-Ms
	// header. Default 2s.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps the uploaded frame. Default 32 MiB.
	MaxBodyBytes int64
	// RetryAfter is the hint sent with 503 answers. Default 500ms.
	RetryAfter time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
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

// Server is the HTTP front of a Gateway, speaking the same endpoint
// contract as serve.Server so serve.Client (and the loadgen) can point at
// a gateway unchanged. It reads requests and writes answers through
// serve's wire codec (serve.ReadDetect, serve.WriteDetections,
// serve.WriteUnavailable, ...), so both fronts put the same bytes on the
// wire:
//
//	POST /detect   PGM frame in, DetectResponse JSON out; X-Stream pins
//	               affinity, X-Deadline-Ms bounds the request. 503 when
//	               every replica failed (Retry-After set), 504 on
//	               deadline, upstream status otherwise.
//	GET  /healthz  200 while the process is alive.
//	GET  /readyz   200 while at least one replica is in rotation; 503
//	               with Retry-After otherwise.
//	GET  /statsz   Stats JSON (gateway counters + per-replica view).
//	GET  /metricsz Prometheus text: gateway counters, hedge delay, and
//	               per-replica latency summaries/counters.
type Server struct {
	cfg ServerConfig
	gw  *Gateway
	mux *http.ServeMux
}

// NewServer wraps a gateway. The caller keeps ownership of the gateway
// (Close it after the HTTP server has drained).
func NewServer(gw *Gateway, cfg ServerConfig) *Server {
	s := &Server{cfg: cfg.withDefaults(), gw: gw, mux: http.NewServeMux()}
	s.mux.HandleFunc("/detect", s.handleDetect)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	return s
}

// Handler returns the HTTP handler serving the contract above.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if serve.RejectNonPost(w, r) {
		return
	}
	stream, timeout, frame, err := serve.ReadDetect(w, r, s.cfg.DefaultTimeout, s.cfg.MaxBodyBytes, nil)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	dets, err := s.gw.Do(ctx, stream, frame)
	switch {
	case err == nil:
		serve.WriteDetections(w, stream, dets)
	case errors.Is(err, context.DeadlineExceeded):
		serve.WriteError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		serve.WriteError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		// A pass-through upstream status keeps its code; everything else
		// (every replica failed, pool empty) is 503 + Retry-After so a
		// serve.Client in front retries with backoff.
		var ae *serve.APIError
		if errors.As(err, &ae) && !ae.Transient() {
			serve.WriteError(w, ae.Status, ae.Message)
			return
		}
		serve.WriteUnavailable(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Ready reports whether any replica is in rotation — the gateway can
// still try fail-static when none are, but a rotation-empty pool is the
// signal to take this gateway out of its own upstream rotation.
func (s *Server) Ready() (bool, string) {
	for _, st := range s.gw.ReplicaStates() {
		if st != Ejected {
			return true, ""
		}
	}
	return false, "all replicas ejected"
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if ready, reason := s.Ready(); !ready {
		serve.WriteUnavailable(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, reason)
		return
	}
	serve.WriteOK(w, map[string]bool{"ready": true})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	serve.WriteOK(w, s.gw.Stats())
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.gw.Stats()
	for _, c := range [...]struct {
		name string
		v    uint64
	}{
		{"pdgate_accepted_total", st.Accepted},
		{"pdgate_answered_total", st.Answered},
		{"pdgate_hedges_fired_total", st.HedgesFired},
		{"pdgate_hedge_wins_total", st.HedgeWins},
		{"pdgate_retries_total", st.Retries},
		{"pdgate_ejections_total", st.Ejections},
		{"pdgate_rejoins_total", st.Rejoins},
		{"pdgate_probes_total", st.Probes},
	} {
		fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
		obs.WriteCounterLine(w, c.name, "", c.v)
	}
	fmt.Fprintf(w, "# TYPE pdgate_hedge_delay_seconds gauge\n")
	obs.WriteGaugeLine(w, "pdgate_hedge_delay_seconds", "", st.HedgeDelay.Seconds())
	fmt.Fprintf(w, "# TYPE pdgate_replica_latency_seconds summary\n")
	for _, r := range s.gw.replicas {
		obs.WriteSummary(w, "pdgate_replica_latency_seconds",
			fmt.Sprintf("replica=%q", r.name), r.latency.Snapshot())
	}
	for _, row := range [...]struct {
		name string
		load func(r *replica) uint64
	}{
		{"pdgate_replica_successes_total", func(r *replica) uint64 { return r.successes.Load() }},
		{"pdgate_replica_failures_total", func(r *replica) uint64 { return r.failures.Load() }},
		{"pdgate_replica_hedges_total", func(r *replica) uint64 { return r.hedges.Load() }},
		{"pdgate_replica_ejections_total", func(r *replica) uint64 { return r.ejections.Load() }},
		{"pdgate_replica_rejoins_total", func(r *replica) uint64 { return r.rejoins.Load() }},
	} {
		fmt.Fprintf(w, "# TYPE %s counter\n", row.name)
		for _, r := range s.gw.replicas {
			obs.WriteCounterLine(w, row.name, fmt.Sprintf("replica=%q", r.name), row.load(r))
		}
	}
	fmt.Fprintf(w, "# TYPE pdgate_replica_in_flight gauge\n")
	for _, r := range s.gw.replicas {
		obs.WriteGaugeLine(w, "pdgate_replica_in_flight", fmt.Sprintf("replica=%q", r.name), float64(r.inFlight.Load()))
	}
	states := s.gw.ReplicaStates()
	fmt.Fprintf(w, "# TYPE pdgate_replica_in_rotation gauge\n")
	for i, r := range s.gw.replicas {
		v := 0.0
		if states[i] != Ejected {
			v = 1
		}
		obs.WriteGaugeLine(w, "pdgate_replica_in_rotation", fmt.Sprintf("replica=%q", r.name), v)
	}
}
