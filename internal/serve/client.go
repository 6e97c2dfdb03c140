package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/geom"
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

// APIError is a non-2xx response from the server.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's retry hint, when it sent one.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Message)
}

// Transient reports whether the failure is worth retrying: load shed (429),
// unavailable (503), or timed out upstream (504).
func (e *APIError) Transient() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
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
		dets, retryAfter, err := c.attempt(ctx, stream, payload)
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
		wait := c.backoff(attempt, retryAfter)
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

// attempt is one HTTP round trip.
func (c *Client) attempt(ctx context.Context, stream int, payload []byte) ([]eval.Detection, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/detect", bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Stream", strconv.Itoa(stream))
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(ms, 10))
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := readErrorMessage(resp.Body)
		return nil, ParseRetryAfter(resp.Header.Get("Retry-After")), &APIError{
			Status:     resp.StatusCode,
			Message:    msg,
			RetryAfter: ParseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	var dr DetectResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&dr); err != nil {
		return nil, 0, fmt.Errorf("serve: decoding response: %w", err)
	}
	dets := make([]eval.Detection, 0, len(dr.Detections))
	for _, d := range dr.Detections {
		dets = append(dets, eval.Detection{Box: geom.XYWH(d.X, d.Y, d.W, d.H), Score: d.Score})
	}
	return dets, 0, nil
}

// readErrorMessage extracts the error string from a JSON error body,
// falling back to the raw text.
func readErrorMessage(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil || len(raw) == 0 {
		return "(no body)"
	}
	var er errorResponse
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		return er.Error
	}
	return string(bytes.TrimSpace(raw))
}

// maxRetryAfter caps a parsed Retry-After hint. The header is an unsigned
// unauthenticated suggestion from the network: a hostile or buggy server
// can send "1e300" (finite, so it parses) and a naive float-to-Duration
// conversion overflows into garbage. One day is far beyond any retry
// horizon this client serves; Client.backoff additionally clamps the hint
// to its own BackoffMax.
const maxRetryAfter = 24 * time.Hour

// ParseRetryAfter reads a Retry-After header in any of the forms this
// stack meets: this server's fractional seconds ("0.250"), RFC 9110
// delay-seconds ("120"), and the RFC 9110 HTTP-date form (the remaining
// wait is measured against the local clock). Unparseable, non-finite
// (NaN/Inf pass strconv.ParseFloat but are not durations), negative, or
// already-elapsed hints return 0 — "no hint" — and anything huge clamps
// to maxRetryAfter, so a hostile header can never manufacture an
// overflowed or unbounded backoff. Exported for callers that layer their
// own retry policy over this package's wire contract (internal/gateway).
func ParseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		if math.IsNaN(secs) || math.IsInf(secs, 0) || secs < 0 {
			return 0
		}
		if secs > maxRetryAfter.Seconds() {
			return maxRetryAfter
		}
		return time.Duration(secs * float64(time.Second))
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t)
		if d <= 0 {
			return 0
		}
		if d > maxRetryAfter {
			return maxRetryAfter
		}
		return d
	}
	return 0
}
