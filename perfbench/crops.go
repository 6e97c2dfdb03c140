package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/serve"
	"repro/internal/svm"
)

const (
	// cropStreams independent cameras send crops, cropRate requests per
	// second between them, on a fixed open-loop schedule.
	cropStreams = 4
	cropRate    = 250
	// cropReplicas serve.Server stacks sit behind the gateway.
	cropReplicas = 2
	// cropDeadline bounds a request from the moment it was due; an answer
	// later than this is a miss.
	cropDeadline = 500 * time.Millisecond
	// cropMaxInFlight caps the generator's outstanding requests; a request
	// due while the cap is reached is counted as failed.
	cropMaxInFlight = 64
	// cropWarmup requests run inside set-up, enough for the gateway's
	// hedge delay to leave its no-evidence ceiling.
	cropWarmup = 16
	// cropBursts calibration bursts are timed before and after the timed
	// phase, while the stack is idle; the open loop never is in between.
	cropBursts = 64
	// pipelineDeadline is the rt frame budget: loose enough that the
	// degradation ladder never sheds levels, so answers stay exact.
	pipelineDeadline = 2 * time.Second
)

// httpServer is one loopback HTTP listener with its serving goroutine.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// newTransport keeps each hop to at most nproc connections.
func newTransport() *http.Transport {
	n := runtime.NumCPU()
	return &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
}

// cropReplica is one serve.Server over a 1-worker Supervisor.
type cropReplica struct {
	sup *serve.Supervisor
	srv *serve.Server
	web *httpServer
}

// cropStack is the crops-served path: loopback HTTP to gateway.Server, a
// gateway over cropReplicas HTTPBackend replicas, each a serve.Server with
// a 1-worker Supervisor, then rt.Pipeline, then core.
type cropStack struct {
	in       *inputs
	seed     int64
	rate     float64 // requests per second over all streams
	replicas []*cropReplica
	gw       *gateway.Gateway
	gwWeb    *httpServer
	client   *http.Client
	hops     []*http.Transport
	tr       *cropTracer
}

func newCropStack(in *inputs, seed int64, traced bool) (_ *cropStack, err error) {
	model, err := svm.Read(bytes.NewReader(in.model))
	if err != nil {
		return nil, fmt.Errorf("decoding model: %w", err)
	}
	s := &cropStack{in: in, seed: seed, rate: cropRate}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if traced {
		s.tr = &cropTracer{}
	}
	gwHop := newTransport()
	s.hops = append(s.hops, gwHop)
	var backends []gateway.Backend
	for i := 0; i < cropReplicas; i++ {
		r, err := s.newReplica(model, i)
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, r)
		var b gateway.Backend = &gateway.HTTPBackend{Base: r.web.url, Client: &http.Client{Transport: gwHop}}
		if traced {
			b = &tracedBackend{Backend: b}
		}
		backends = append(backends, b)
	}
	if s.gw, err = gateway.New(backends, gateway.Config{Seed: seed}); err != nil {
		return nil, err
	}
	var h http.Handler = gateway.NewServer(s.gw, gateway.ServerConfig{}).Handler()
	if traced {
		h = s.tr.gatewayHandler(h)
	}
	if s.gwWeb, err = listen(h); err != nil {
		return nil, err
	}
	clientHop := newTransport()
	s.hops = append(s.hops, clientHop)
	s.client = &http.Client{Transport: clientHop}
	for i := 0; i < cropWarmup; i++ {
		k := i % len(in.crops)
		dets, err := s.send(context.Background(), i%cropStreams, k)
		if err != nil {
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
		if !sameDetections(dets, in.crops[k].ref) {
			return nil, errors.New("warm-up request: detections differ from the reference")
		}
	}
	return s, nil
}

func (s *cropStack) newReplica(model *svm.Model, id int) (*cropReplica, error) {
	var m *obs.Metrics
	if s.tr != nil {
		m = obs.NewMetrics()
	}
	cfg := s.in.cfg
	cfg.Workers = 1 // a replica scans on one core; the replicas share the rest
	factory := func(int) (*core.Detector, error) { return core.NewDetector(model, cfg) }
	sup, err := serve.NewSupervisor(factory, serve.SupervisorConfig{
		Workers:  1,
		Pipeline: rt.Config{Deadline: pipelineDeadline, Metrics: m, MetricsID: id},
	})
	if err != nil {
		return nil, err
	}
	r := &cropReplica{sup: sup, srv: serve.NewServer(sup, serve.ServerConfig{Metrics: m})}
	var h http.Handler = r.srv.Handler()
	if s.tr != nil {
		h = s.tr.replicaHandler(h)
	}
	if r.web, err = listen(h); err != nil {
		sup.Close()
		return nil, err
	}
	return r, nil
}

// send posts crop k on stream and decodes the answer.
func (s *cropStack) send(ctx context.Context, stream, k int) ([]eval.Detection, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.gwWeb.url+"/detect", bytes.NewReader(s.in.crops[k].pgm))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Stream", strconv.Itoa(stream))
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(max(1, time.Until(dl).Milliseconds()), 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var dr serve.DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	dets := make([]eval.Detection, len(dr.Detections))
	for i, d := range dr.Detections {
		dets[i] = eval.Detection{Box: geom.XYWH(d.X, d.Y, d.W, d.H), Score: d.Score}
	}
	return dets, nil
}

// request is one open-loop request's outcome.
type request struct {
	crop int
	due  time.Time
	late time.Duration // send time minus due time
	lat  time.Duration // answer time minus due time
	dets []eval.Detection
	err  error
	shed bool // not sent: the generator's in-flight cap was reached
}

// measure runs the open loop for d: each stream sends on its own fixed
// schedule, whether or not earlier requests have been answered.
func (s *cropStack) measure(d time.Duration, minSamples int, sp *speedometer) (phase, error) {
	sp.sample(cropBursts)
	var before ledgerSnapshot
	if s.tr != nil {
		var err error
		if before, err = s.snapshot(); err != nil {
			return phase{}, err
		}
		s.tr.reset()
	}
	period := time.Duration(float64(time.Second) * cropStreams / s.rate) // per stream
	perStream := max(int(d/period), (minSamples+cropStreams-1)/cropStreams)
	reqs := make([][]request, cropStreams)
	sem := make(chan struct{}, cropMaxInFlight)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for st := 0; st < cropStreams; st++ {
		reqs[st] = make([]request, perStream)
		wg.Add(1)
		go func(st int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.seed*cropStreams + int64(st)))
			offset := period * time.Duration(st) / cropStreams
			for k := range reqs[st] {
				r := &reqs[st][k]
				r.crop = rng.Intn(len(s.in.crops))
				r.due = start.Add(offset + time.Duration(k)*period)
				time.Sleep(time.Until(r.due))
				r.late = time.Since(r.due)
				select {
				case sem <- struct{}{}:
				default:
					r.shed = true
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					ctx, cancel := context.WithDeadline(context.Background(), r.due.Add(cropDeadline))
					defer cancel()
					r.dets, r.err = s.send(ctx, st, r.crop)
					r.lat = time.Since(r.due)
				}()
			}
		}(st)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start), paced: true}
	sp.sample(cropBursts)
	var late []float64
	for st := range reqs {
		for _, r := range reqs[st] {
			ph.out.attempted++
			late = append(late, msOf(r.late))
			if r.shed || r.err != nil {
				ph.out.failed++
				continue
			}
			ph.lat = append(ph.lat, msOf(r.lat))
			c := s.in.crops[r.crop]
			switch {
			case !sameDetections(r.dets, c.ref):
				ph.out.wrong++
				ph.out.failed++
			case r.lat <= cropDeadline:
				ph.out.ok++
			}
			ph.q.add(r.dets, c.truth)
		}
	}
	if s.tr != nil {
		after, err := s.snapshot()
		if err != nil {
			return phase{}, err
		}
		ph.layers = s.tr.values(before, after)
		ph.layers["bench.late_ms_p90"] = quantile(late, 0.9)
	}
	return ph, nil
}

func (s *cropStack) settle() error {
	_, err := s.send(context.Background(), 0, 0)
	return err
}

func (s *cropStack) close() {
	if s.gwWeb != nil {
		s.gwWeb.close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, r := range s.replicas {
		r.web.close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r.srv.Shutdown(ctx) // the listener is already drained
		cancel()
		r.sup.Close()
	}
	for _, t := range s.hops {
		t.CloseIdleConnections()
	}
}

// ledgerSnapshot is the counters the crops-served ledger differences
// across the traced phase.
type ledgerSnapshot struct {
	gw   gateway.Stats
	prom map[string]float64 // /metricsz samples summed over replicas
	// accepted, shed and rejected sum the replicas' /statsz admission
	// counters.
	accepted, shed, rejected uint64
}

func (s *cropStack) snapshot() (ledgerSnapshot, error) {
	snap := ledgerSnapshot{gw: s.gw.Stats(), prom: map[string]float64{}}
	for _, r := range s.replicas {
		text, err := s.get(r.web.url + "/metricsz")
		if err != nil {
			return snap, err
		}
		if err := addPrometheus(snap.prom, text); err != nil {
			return snap, err
		}
		raw, err := s.get(r.web.url + "/statsz")
		if err != nil {
			return snap, err
		}
		var st struct {
			Server serve.ServerStats `json:"server"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return snap, fmt.Errorf("decoding /statsz: %w", err)
		}
		snap.accepted += st.Server.Accepted
		snap.shed += st.Server.Shed
		snap.rejected += st.Server.BreakerRejected
	}
	return snap, nil
}

func (s *cropStack) get(url string) ([]byte, error) {
	resp, err := s.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b, nil
}

// addPrometheus adds every unlabelled or labelled sample of a text
// exposition into m, keyed by the sample's full name with labels.
func addPrometheus(m map[string]float64, text []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("bad /metricsz line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("bad /metricsz line %q: %w", line, err)
		}
		m[line[:i]] += v
	}
	return sc.Err()
}

// cropTracer holds the benchmark-side spans of the traced crops-served
// phase: each replica's HTTP handler span, and each gateway request span
// with the attempts the gateway made for it.
type cropTracer struct {
	mu     sync.Mutex
	http   []time.Duration // replica /detect handler spans
	gwSelf []time.Duration // gateway request span minus winning attempt span
}

func (t *cropTracer) reset() {
	t.mu.Lock()
	t.http, t.gwSelf = t.http[:0], t.gwSelf[:0]
	t.mu.Unlock()
}

func (t *cropTracer) replicaHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/detect" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		t.mu.Lock()
		t.http = append(t.http, d)
		t.mu.Unlock()
	})
}

type attemptsKey struct{}

// attempts records the backend attempts of one gateway request.
type attempts struct {
	mu  sync.Mutex
	won time.Duration // span of the first successful attempt to finish
	end time.Time
}

func (t *cropTracer) gatewayHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/detect" {
			h.ServeHTTP(w, r)
			return
		}
		a := &attempts{}
		t0 := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), attemptsKey{}, a)))
		d := time.Since(t0)
		a.mu.Lock()
		won := a.won
		a.mu.Unlock()
		if won == 0 {
			return // no attempt succeeded: the request has no winning span
		}
		t.mu.Lock()
		t.gwSelf = append(t.gwSelf, d-won)
		t.mu.Unlock()
	})
}

// tracedBackend times each gateway attempt into the request's attempts.
type tracedBackend struct{ gateway.Backend }

func (b *tracedBackend) Detect(ctx context.Context, stream int, frame *imgproc.Gray) ([]eval.Detection, error) {
	t0 := time.Now()
	dets, err := b.Backend.Detect(ctx, stream, frame)
	end := time.Now()
	if a, ok := ctx.Value(attemptsKey{}).(*attempts); ok && err == nil {
		a.mu.Lock()
		if a.won == 0 || end.Before(a.end) {
			a.won, a.end = end.Sub(t0), end
		}
		a.mu.Unlock()
	}
	return dets, err
}

// values computes the crops-served ledger from the spans and from the
// counter deltas between two snapshots.
func (t *cropTracer) values(a, b ledgerSnapshot) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	delta := func(key string) float64 { return b.prom[key] - a.prom[key] }
	// meanMs is the mean of a /metricsz summary over the phase.
	meanMs := func(name, labels string) float64 {
		return ratio(delta(name+"_sum"+labels)*1e3, delta(name+"_count"+labels))
	}
	stage := func(s obs.Stage) float64 { return meanMs("pd_stage_seconds", `{stage="`+s.String()+`"}`) }
	// The allocation rows stay off path (0): this process also runs the
	// load generator, its HTTP client and the decoding of every answer, so
	// its MemStats would not be the core layer's.
	v := offPathLayers()
	// The rt frame span is the span of the detect call inside the
	// pipeline, so it is this path's detect span.
	v["rt.frame_ms"] = meanMs("pd_frame_seconds", "")
	v["rt.wait_ms"] = meanMs("pd_queue_wait_seconds", "")
	v["core.detect_ms"] = v["rt.frame_ms"]
	v["core.scan_ms"] = stage(obs.StageScan)
	v["core.nms_ms"] = stage(obs.StageNMS)
	v["hog.cells_ms"] = stage(obs.StageHOGCells)
	v["hog.norm_ms"] = stage(obs.StageHOGNorm)
	v["featpyr.pyramid_ms"] = stage(obs.StagePyramid)
	v["core.unattributed_ms"] = v["core.detect_ms"] - v["core.scan_ms"] - v["core.nms_ms"] -
		v["hog.cells_ms"] - v["hog.norm_ms"] - v["featpyr.pyramid_ms"]
	v["serve.decode_ms"] = stage(obs.StageDecode)
	hits, misses := delta("pd_arena_hits_total"), delta("pd_arena_misses_total")
	v["core.arena_miss_ratio"] = ratio(misses, hits+misses)
	accepted := float64(b.gw.Accepted - a.gw.Accepted)
	v["gateway.hedge_ratio"] = ratio(float64(b.gw.HedgesFired-a.gw.HedgesFired), accepted)
	v["gateway.retry_ratio"] = ratio(float64(b.gw.Retries-a.gw.Retries), accepted)
	v["gateway.self_ms"] = meanDurMs(t.gwSelf)
	v["serve.http_ms"] = meanDurMs(t.http)
	shed := float64(b.shed - a.shed)
	v["serve.shed_ratio"] = ratio(shed, shed+float64(b.accepted-a.accepted)+float64(b.rejected-a.rejected))
	return v
}

func meanDurMs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ratio(msOf(sum), float64(len(ds)))
}
