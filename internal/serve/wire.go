package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/obs"
)

// The /detect wire codec. Server and the gateway's HTTP front read
// requests and write answers through these functions, and Client and the
// gateway's HTTPBackend make their round trips through PostDetect, so the
// contract documented on Server is written once.

// Detection is the JSON wire form of one detection box.
type Detection struct {
	X     int     `json:"x"`
	Y     int     `json:"y"`
	W     int     `json:"w"`
	H     int     `json:"h"`
	Score float64 `json:"score"`
}

// DetectResponse is the JSON body of a successful POST /detect.
type DetectResponse struct {
	Stream     int         `json:"stream"`
	Detections []Detection `json:"detections"`
}

// errorResponse is the JSON body of a failed request.
type errorResponse struct {
	Error string `json:"error"`
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteOK answers 200 with v as its JSON body.
func WriteOK(w http.ResponseWriter, v any) { writeJSON(w, http.StatusOK, v) }

// WriteError answers status with msg as the JSON error body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// WriteUnavailable is WriteError with a Retry-After hint, for the 429 and
// 503 answers a client should retry.
func WriteUnavailable(w http.ResponseWriter, status int, retryAfter time.Duration, msg string) {
	w.Header().Set("Retry-After", retryAfterValue(retryAfter))
	WriteError(w, status, msg)
}

// WriteDetections answers a successful POST /detect.
func WriteDetections(w http.ResponseWriter, stream int, dets []eval.Detection) {
	resp := DetectResponse{Stream: stream, Detections: make([]Detection, 0, len(dets))}
	for _, d := range dets {
		resp.Detections = append(resp.Detections, Detection{
			X: d.Box.Min.X, Y: d.Box.Min.Y, W: d.Box.W(), H: d.Box.H(), Score: d.Score,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// retryAfterValue renders a Retry-After header with fractional seconds.
// The rendered value is clamped to a 1 ms floor: the three-decimal format
// turns any shorter (or zero, or negative) hint into "0.000" — or a
// negative string — which clients round to "retry immediately" and hammer
// the server with, defeating the backoff the header exists to provide.
func retryAfterValue(d time.Duration) string {
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
}

// RejectNonPost answers 405 to anything but a POST and reports whether it
// did.
func RejectNonPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodPost {
		return false
	}
	w.Header().Set("Allow", http.MethodPost)
	WriteError(w, http.StatusMethodNotAllowed, "POST a PGM frame")
	return true
}

// ReadDetect reads a POST /detect request: the stream from X-Stream
// (default 0), the budget from X-Deadline-Ms (default defaultTimeout; it
// must be a positive number of milliseconds that fits a time.Duration, as
// an overflowed one would reach the detector already expired and count
// against the breaker) and the PGM frame from a
// body capped at maxBody bytes. decode, when non-nil, records the time a
// good frame took to decode. A bad request is answered here with one 400,
// and its error, whose text is the answer's message, is returned.
func ReadDetect(w http.ResponseWriter, r *http.Request, defaultTimeout time.Duration, maxBody int64, decode *obs.Histogram) (stream int, timeout time.Duration, frame *imgproc.Gray, err error) {
	defer func() {
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
		}
	}()
	if v := r.Header.Get("X-Stream"); v != "" {
		if stream, err = strconv.Atoi(v); err != nil {
			return 0, 0, nil, fmt.Errorf("bad X-Stream: %w", err)
		}
	}
	timeout = defaultTimeout
	if v := r.Header.Get("X-Deadline-Ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 || time.Duration(ms) > math.MaxInt64/time.Millisecond {
			return 0, 0, nil, fmt.Errorf("bad X-Deadline-Ms %q", v)
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	decode0 := time.Now()
	if frame, err = imgproc.ReadPGM(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		return 0, 0, nil, fmt.Errorf("bad PGM frame: %w", err)
	}
	decode.Observe(time.Since(decode0))
	return stream, timeout, frame, nil
}

// maxResponseBytes caps the detections body a round trip reads.
const maxResponseBytes = 16 << 20

// PostDetect is one POST /detect round trip to the server at base: the
// PGM payload goes out with X-Stream and, when ctx has a deadline, the
// remaining budget (at least 1 ms) as X-Deadline-Ms. A non-200 answer
// comes back as an *APIError carrying the body's message and the parsed
// Retry-After hint. A 200 answer must hold exactly one DetectResponse;
// anything else is an error with no detections. It never retries.
func PostDetect(ctx context.Context, hc *http.Client, base string, stream int, payload []byte) ([]eval.Detection, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/detect", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Stream", strconv.Itoa(stream))
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(max(1, time.Until(dl).Milliseconds()), 10))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &APIError{
			Status:     resp.StatusCode,
			Message:    readErrorMessage(resp.Body),
			RetryAfter: ParseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	dec := json.NewDecoder(io.LimitReader(resp.Body, maxResponseBytes))
	var dr DetectResponse
	if err := dec.Decode(&dr); err != nil {
		return nil, fmt.Errorf("serve: decoding response: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("serve: decoding response: data after the answer")
	}
	dets := make([]eval.Detection, 0, len(dr.Detections))
	for _, d := range dr.Detections {
		dets = append(dets, eval.Detection{Box: geom.XYWH(d.X, d.Y, d.W, d.H), Score: d.Score})
	}
	return dets, nil
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
// overflowed or unbounded backoff.
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
