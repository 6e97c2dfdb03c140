package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/imgproc"
)

// ClientConfig tunes the retrying client.
type ClientConfig struct {
	// MaxAttempts is the total number of tries per Detect call (first
	// attempt included). Default 4.
	MaxAttempts int
	// BackoffBase/BackoffMax shape the exponential retry backoff: attempt
	// n waits base * 2^(n-1) capped at max, jittered over [d/2, d]. A
	// server Retry-After hint raises the wait when it is longer, but never
	// past BackoffMax (a hostile header must not defeat the retry policy).
	// Defaults 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HTTPClient is the transport; default a plain &http.Client{} (the
	// per-call context carries the end-to-end deadline, so no client-level
	// timeout is set).
	HTTPClient *http.Client
	// OnRetry, if non-nil, is called before each retry sleep with the
	// attempt just failed (1-based), the wait about to be taken, and the
	// transient failure that caused it.
	OnRetry func(attempt int, wait time.Duration, cause error)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = 2 * time.Second
		if c.BackoffMax < c.BackoffBase {
			c.BackoffMax = c.BackoffBase
		}
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c
}

// Client calls a Server with retry-on-transient semantics: 429/503/504 and
// network errors are retried with capped exponential backoff plus jitter
// (honouring the server's Retry-After hint when it is longer), all under
// the end-to-end deadline of the caller's context. Permanent failures
// (4xx, 500) return immediately.
type Client struct {
	base string
	cfg  ClientConfig

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Uint64
}

// NewClient returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string, cfg ClientConfig) *Client {
	return &Client{
		base: baseURL,
		cfg:  cfg.withDefaults(),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Retries returns the total number of retried attempts across all calls.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// backoff returns the jittered wait before retrying after attempt n
// (1-based), raised to the server's hint when that is longer — but never
// past BackoffMax. The hint arrives off the wire, so an arbitrarily large
// (or hostile) Retry-After taken verbatim would turn one bad header into
// a wait that outlives any reasonable deadline — Detect then reports
// "deadline too tight to retry" without ever retrying. The configured
// ceiling is the client owner's word against the server's.
func (c *Client) backoff(n int, hint time.Duration) time.Duration {
	c.mu.Lock()
	d := jitter(c.rng, BackoffDelay(n, c.cfg.BackoffBase, c.cfg.BackoffMax))
	c.mu.Unlock()
	if hint > c.cfg.BackoffMax {
		hint = c.cfg.BackoffMax
	}
	if hint > d {
		d = hint
	}
	return d
}

// Detect runs one frame of the given stream through the server and returns
// the detections. The context is the end-to-end budget: it bounds every
// attempt and every backoff sleep, and each attempt forwards the remaining
// budget to the server as its X-Deadline-Ms.
func (c *Client) Detect(ctx context.Context, stream int, frame *imgproc.Gray) ([]eval.Detection, error) {
	if frame == nil {
		return nil, errors.New("serve: nil frame")
	}
	var body bytes.Buffer
	if err := imgproc.WritePGM(&body, frame); err != nil {
		return nil, fmt.Errorf("serve: encoding frame: %w", err)
	}
	payload := body.Bytes()

	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, c.deadlineError(err, lastErr)
		}
		dets, err := PostDetect(ctx, c.cfg.HTTPClient, c.base, stream, payload)
		if err == nil {
			return dets, nil
		}
		lastErr = err
		if !transient(err) {
			return nil, err
		}
		if attempt == c.cfg.MaxAttempts {
			break
		}
		var ae *APIError
		var hint time.Duration
		if errors.As(err, &ae) {
			hint = ae.RetryAfter
		}
		wait := c.backoff(attempt, hint)
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < wait {
			// The backoff would outlive the budget; report the transient
			// failure rather than sleeping into a guaranteed deadline.
			return nil, fmt.Errorf("serve: deadline too tight to retry: %w", lastErr)
		}
		if c.cfg.OnRetry != nil {
			c.cfg.OnRetry(attempt, wait, err)
		}
		c.retries.Add(1)
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, c.deadlineError(ctx.Err(), lastErr)
		}
		t.Stop()
	}
	return nil, fmt.Errorf("serve: %d attempts exhausted: %w", c.cfg.MaxAttempts, lastErr)
}

// deadlineError wraps a context error with the last transient failure so
// the caller sees why the budget ran out.
func (c *Client) deadlineError(ctxErr, lastErr error) error {
	if lastErr != nil {
		return fmt.Errorf("serve: %w (last failure: %v)", ctxErr, lastErr)
	}
	return ctxErr
}

// transient reports whether an attempt failure is retryable: a transient
// APIError or a transport-level error (the request never completed).
func transient(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Transient()
	}
	// Context expiry is terminal, anything else transport-level is worth
	// a retry.
	return !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)
}
