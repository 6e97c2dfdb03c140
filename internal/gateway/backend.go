package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/eval"
	"repro/internal/imgproc"
	"repro/internal/serve"
)

// Backend is one detection replica the gateway balances over. The two
// production shapes are LocalBackend (an in-process serve.Supervisor,
// optionally fronted by its serve.Server for readiness) and HTTPBackend
// (a remote pdserve instance); the chaos harness injects fault-wrapped
// ones.
type Backend interface {
	// Detect runs one frame of the given stream and returns the
	// detections. One call is ONE attempt — the gateway owns hedging and
	// retries, so a Backend must not retry internally. Transient
	// failures should surface as *serve.APIError (for remote replicas)
	// or the serve sentinel errors (for local ones) so the gateway can
	// classify them.
	Detect(ctx context.Context, stream int, frame *imgproc.Gray) ([]eval.Detection, error)
	// Probe is the active health check: nil when the replica would pass
	// its readiness probe. Used to readmit ejected replicas, so it must
	// be cheap and side-effect free.
	Probe(ctx context.Context) error
}

// LocalBackend adapts an in-process detection stack. Sup is required;
// Srv, when set, supplies the readiness view (breaker state, draining)
// that the bare supervisor cannot see.
type LocalBackend struct {
	Sup *serve.Supervisor
	Srv *serve.Server
}

// Detect submits the frame to the supervisor.
func (b *LocalBackend) Detect(ctx context.Context, stream int, frame *imgproc.Gray) ([]eval.Detection, error) {
	return b.Sup.Do(ctx, stream, frame)
}

// Probe reports readiness: the server's Ready() when a server fronts the
// stack, otherwise "at least one worker pipeline is live".
func (b *LocalBackend) Probe(context.Context) error {
	if b.Srv != nil {
		if ready, reason := b.Srv.Ready(); !ready {
			return errors.New(reason)
		}
		return nil
	}
	if b.Sup.Running() == 0 {
		return errors.New("no workers running")
	}
	return nil
}

// HTTPBackend is a remote detection server (the serve.Server endpoint
// contract). Its Detect is one serve.PostDetect, the round trip
// serve.Client retries around: retry and hedge policy live in the
// gateway, and a backend that silently retried would spend the budget
// twice.
type HTTPBackend struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// Client is the transport; nil means http.DefaultClient (the
	// per-call context carries the deadline).
	Client *http.Client
}

func (b *HTTPBackend) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

// Detect is one POST /detect round trip. Non-200 responses come back as
// *serve.APIError carrying the parsed Retry-After hint, so the gateway's
// transient classification matches serve.Client's.
func (b *HTTPBackend) Detect(ctx context.Context, stream int, frame *imgproc.Gray) ([]eval.Detection, error) {
	var body bytes.Buffer
	if err := imgproc.WritePGM(&body, frame); err != nil {
		return nil, fmt.Errorf("gateway: encoding frame: %w", err)
	}
	return serve.PostDetect(ctx, b.client(), b.Base, stream, body.Bytes())
}

// Probe is one GET /readyz round trip.
func (b *HTTPBackend) Probe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.Base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := b.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	return nil
}
