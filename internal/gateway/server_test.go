package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/imgproc"
	"repro/internal/rt"
	"repro/internal/serve"
	"repro/internal/svm"
)

// newTestGatewayServer builds an httptest server over a gateway of
// scripted backends.
func newTestGatewayServer(t *testing.T, backends ...*scriptBackend) (*httptest.Server, *Gateway) {
	t.Helper()
	bs := make([]Backend, len(backends))
	for i, b := range backends {
		bs[i] = b
	}
	g, err := New(bs, Config{ProbeInterval: -1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(NewServer(g, ServerConfig{}).Handler())
	t.Cleanup(ts.Close)
	return ts, g
}

func pgmBody(t *testing.T) *bytes.Buffer {
	t.Helper()
	var b bytes.Buffer
	if err := imgproc.WritePGM(&b, imgproc.NewGray(16, 16)); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestServerDetectRoundTrip covers the happy path plus the client-fault
// answers of the gateway's HTTP front.
func TestServerDetectRoundTrip(t *testing.T) {
	ts, g := newTestGatewayServer(t, &scriptBackend{}, &scriptBackend{})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/detect", pgmBody(t))
	req.Header.Set("X-Stream", "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /detect = %d: %s", resp.StatusCode, body)
	}
	var dr serve.DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.Stream != 3 || len(dr.Detections) != 1 {
		t.Fatalf("response stream=%d dets=%d, want 3/1", dr.Stream, len(dr.Detections))
	}
	if st := g.Stats(); st.Accepted != 1 || st.Answered != 1 {
		t.Errorf("accepted/answered = %d/%d, want 1/1", st.Accepted, st.Answered)
	}

	// Wrong method and bad payloads answer 4xx without touching the pool.
	if resp, _ := http.Get(ts.URL + "/detect"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /detect = %d, want 405", resp.StatusCode)
	}
	if resp, _ := http.Post(ts.URL+"/detect", "application/octet-stream",
		strings.NewReader("not a pgm")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad frame = %d, want 400", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/detect", pgmBody(t))
	req.Header.Set("X-Deadline-Ms", "bogus")
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad deadline = %d, want 400", resp.StatusCode)
	}
	if st := g.Stats(); st.Accepted != 1 {
		t.Errorf("client faults reached the pool: accepted = %d, want 1", st.Accepted)
	}
}

// TestServerUnavailableAndObservability: total pool failure answers 503
// with a Retry-After hint serve.Client understands, /readyz tracks the
// rotation, and /statsz + /metricsz render the gateway's view.
func TestServerUnavailableAndObservability(t *testing.T) {
	down := &serve.APIError{Status: 503, Message: "down"}
	b0, b1 := &scriptBackend{err: down}, &scriptBackend{err: down}
	ts, g := newTestGatewayServer(t, b0, b1)

	resp, err := http.Post(ts.URL+"/detect", "application/octet-stream", pgmBody(t))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("total failure = %d, want 503", resp.StatusCode)
	}
	if ra := serve.ParseRetryAfter(resp.Header.Get("Retry-After")); ra <= 0 {
		t.Errorf("Retry-After %q did not parse as a positive hint", resp.Header.Get("Retry-After"))
	}

	// Healthy pool: ready. All ejected: not ready (and still answering).
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d with a healthy pool, want 200", resp.StatusCode)
	}
	g.mu.Lock()
	for _, r := range g.replicas {
		r.health.eject(g.clock.Now())
	}
	g.mu.Unlock()
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d with all replicas ejected, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	resp.Body.Close()
	if st.Accepted != 1 || len(st.Replicas) != 2 || st.Replicas[0].State != "ejected" {
		t.Errorf("statsz = accepted %d, %d replicas, r0 %q; want 1, 2, ejected",
			st.Accepted, len(st.Replicas), st.Replicas[0].State)
	}

	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(raw)
	for _, want := range []string{
		"pdgate_accepted_total 1",
		"pdgate_answered_total 1",
		`pdgate_replica_failures_total{replica="r0"}`,
		`pdgate_replica_latency_seconds{replica="r1",quantile="0.5"}`,
		`pdgate_replica_in_rotation{replica="r0"} 0`,
		"pdgate_hedge_delay_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metricsz missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestHTTPBackend exercises the remote-replica adapter against a stub
// replica server: wire decoding, header propagation, APIError mapping
// with the Retry-After hint, and the readiness probe.
func TestHTTPBackend(t *testing.T) {
	var gotStream, gotDeadline string
	ready := true
	mux := http.NewServeMux()
	mux.HandleFunc("/detect", func(w http.ResponseWriter, r *http.Request) {
		gotStream = r.Header.Get("X-Stream")
		gotDeadline = r.Header.Get("X-Deadline-Ms")
		if !ready {
			w.Header().Set("Retry-After", "0.250")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining"})
			return
		}
		json.NewEncoder(w).Encode(serve.DetectResponse{
			Stream:     7,
			Detections: []serve.Detection{{X: 1, Y: 2, W: 32, H: 64, Score: 0.5}},
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	b := &HTTPBackend{Base: ts.URL}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	dets, err := b.Detect(ctx, 7, imgproc.NewGray(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 1 || dets[0].Box.W() != 32 {
		t.Fatalf("dets = %v, want the stub's one 32-wide box", dets)
	}
	if gotStream != "7" || gotDeadline == "" {
		t.Errorf("headers stream=%q deadline=%q, want 7 and a deadline", gotStream, gotDeadline)
	}
	if err := b.Probe(ctx); err != nil {
		t.Errorf("probe of a ready replica: %v", err)
	}

	ready = false
	_, err = b.Detect(ctx, 7, imgproc.NewGray(8, 8))
	var ae *serve.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *serve.APIError", err)
	}
	if ae.Status != 503 || ae.RetryAfter != 250*time.Millisecond || ae.Message != "draining" {
		t.Errorf("APIError = %+v, want 503/250ms/draining", ae)
	}
	if err := b.Probe(ctx); err == nil {
		t.Error("probe of an unready replica must fail")
	}
}

// TestServerRejectsBadInputLikeServe sends serve's bad-input cases to the
// gateway's front and to a replica's serve.Server with the same body cap:
// both must answer with the same status, headers and body, and the
// gateway's pool must never see the request.
func TestServerRejectsBadInputLikeServe(t *testing.T) {
	const maxBody = 1 << 12
	sup, err := serve.NewSupervisor(func(int) (*core.Detector, error) {
		cfg := core.DefaultConfig()
		cfg.Workers = 1
		return core.NewDetector(&svm.Model{W: make([]float64, cfg.DescriptorLen())}, cfg)
	}, serve.SupervisorConfig{Workers: 1, Pipeline: rt.Config{Deadline: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	replica := httptest.NewServer(serve.NewServer(sup, serve.ServerConfig{MaxBodyBytes: maxBody}).Handler())
	defer replica.Close()
	g, err := New([]Backend{&scriptBackend{}}, Config{ProbeInterval: -1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	front := httptest.NewServer(NewServer(g, ServerConfig{MaxBodyBytes: maxBody}).Handler())
	defer front.Close()

	frame := pgmBody(t).Bytes()
	oversize := append([]byte("P5\n128 128\n255\n"), make([]byte, 128*128)...)
	cases := []struct {
		name, method string
		body         []byte
		hdr          map[string]string
		status       int
		msg          string
	}{
		{"bad stream", http.MethodPost, frame, map[string]string{"X-Stream": "abc"}, 400, "bad X-Stream: "},
		{"zero deadline", http.MethodPost, frame, map[string]string{"X-Deadline-Ms": "0"}, 400, `bad X-Deadline-Ms "0"`},
		{"negative deadline", http.MethodPost, frame, map[string]string{"X-Deadline-Ms": "-5"}, 400, `bad X-Deadline-Ms "-5"`},
		{"unparsable deadline", http.MethodPost, frame, map[string]string{"X-Deadline-Ms": "soon"}, 400, `bad X-Deadline-Ms "soon"`},
		{"overflowing deadline", http.MethodPost, frame, map[string]string{"X-Deadline-Ms": "9223372036855"}, 400, `bad X-Deadline-Ms "9223372036855"`},
		{"corrupt frame", http.MethodPost, []byte("P5\nnot a frame"), nil, 400, "bad PGM frame: "},
		{"truncated frame", http.MethodPost, frame[:len(frame)/2], nil, 400, "bad PGM frame: "},
		{"oversize body", http.MethodPost, oversize, nil, 400, "bad PGM frame: "},
		{"GET", http.MethodGet, nil, nil, 405, "POST a PGM frame"},
	}
	do := func(base string, method string, body []byte, hdr map[string]string) (*http.Response, []byte) {
		req, err := http.NewRequest(method, base+"/detect", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}
	for _, c := range cases {
		want, wantBody := do(replica.URL, c.method, c.body, c.hdr)
		got, gotBody := do(front.URL, c.method, c.body, c.hdr)
		if got.StatusCode != c.status || want.StatusCode != c.status {
			t.Errorf("%s: gateway %d, serve %d, want %d", c.name, got.StatusCode, want.StatusCode, c.status)
		}
		var er struct{ Error string }
		if err := json.Unmarshal(gotBody, &er); err != nil || !strings.HasPrefix(er.Error, c.msg) {
			t.Errorf("%s: gateway body %q, want an error starting %q", c.name, gotBody, c.msg)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: gateway body %q, serve body %q", c.name, gotBody, wantBody)
		}
		for _, h := range []string{"Content-Type", "Allow", "Retry-After"} {
			if got.Header.Get(h) != want.Header.Get(h) {
				t.Errorf("%s: gateway %s %q, serve %q", c.name, h, got.Header.Get(h), want.Header.Get(h))
			}
		}
	}
	if st := g.Stats(); st.Accepted != 0 {
		t.Errorf("bad input reached the pool: accepted = %d, want 0", st.Accepted)
	}
}

// TestServerRetryAfterFloor: a sub-millisecond RetryAfter goes out at the
// codec's 1 ms floor, not as "0.000", which clients read as "retry now".
func TestServerRetryAfterFloor(t *testing.T) {
	down := &serve.APIError{Status: 503, Message: "down"}
	g, err := New([]Backend{&scriptBackend{err: down}}, Config{ProbeInterval: -1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(NewServer(g, ServerConfig{RetryAfter: 400 * time.Microsecond}).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/detect", "application/octet-stream", pgmBody(t))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "0.001" {
		t.Errorf("total failure = %d with Retry-After %q, want 503 with 0.001",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
