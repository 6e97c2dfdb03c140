package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/geom"
)

// maxPGMPixels mirrors the PGM decoder's pixel cap (imgproc.maxPNMPixels).
const maxPGMPixels = 1 << 26

// FuzzDetectRequest drives the shared /detect request reader with an
// arbitrary body, X-Stream and X-Deadline-Ms. It must never panic, must
// accept only a positive deadline and a decodable frame within the
// decoder's pixel cap, and must answer every rejection with exactly one
// 400 whose message names the first bad field.
func FuzzDetectRequest(f *testing.F) {
	const defaultTimeout, maxBody = 2 * time.Second, 1 << 12
	good := []byte("P5\n2 2\n255\n\x00\x7f\x80\xff")
	f.Add(good, "", "")
	f.Add(good, "7", "250")
	f.Add(good, "-3", "1")
	f.Add([]byte("P2\n3 1\n255\n0 128 255\n"), "0", "")
	f.Add(good, "abc", "")
	f.Add(good, "99999999999999999999", "")
	f.Add(good, "", "0")
	f.Add(good, "", "-5")
	f.Add(good, "", "soon")
	f.Add(good, "", "9223372036855")
	f.Add(good, "x", "y")
	f.Add([]byte("P5\nnot a frame"), "", "")
	f.Add([]byte("P5\n4 4\n255\nshort"), "1", "10")
	f.Add([]byte("P5\n65535 65535\n255\n"), "", "")
	f.Add(append([]byte("P5\n128 128\n255\n"), make([]byte, 128*128)...), "", "")
	f.Add([]byte(""), "", "")

	f.Fuzz(func(t *testing.T, body []byte, stream, deadline string) {
		req := httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(body))
		req.Header.Set("X-Stream", stream)
		req.Header.Set("X-Deadline-Ms", deadline)
		rec := httptest.NewRecorder()
		gotStream, timeout, frame, err := ReadDetect(rec, req, defaultTimeout, maxBody, nil)

		// The oracle: the first bad field, in the contract's order.
		wantStream, streamErr := 0, error(nil)
		if stream != "" {
			wantStream, streamErr = strconv.Atoi(stream)
		}
		wantTimeout, deadlineOK := defaultTimeout, true
		if deadline != "" {
			ms, err := strconv.Atoi(deadline)
			wantTimeout = time.Duration(ms) * time.Millisecond
			deadlineOK = err == nil && ms > 0 && wantTimeout/time.Millisecond == time.Duration(ms)
		}
		var prefix string
		switch {
		case streamErr != nil:
			prefix = "bad X-Stream: "
		case !deadlineOK:
			prefix = "bad X-Deadline-Ms " + strconv.Quote(deadline)
		}

		if err == nil {
			if prefix != "" {
				t.Fatalf("accepted a request with a bad header: stream %q, deadline %q", stream, deadline)
			}
			if gotStream != wantStream || timeout != wantTimeout || timeout <= 0 {
				t.Fatalf("stream %d, timeout %v; want %d, %v", gotStream, timeout, wantStream, wantTimeout)
			}
			if frame == nil || frame.W <= 0 || frame.H <= 0 || frame.W*frame.H > maxPGMPixels || len(frame.Pix) != frame.W*frame.H {
				t.Fatalf("accepted an out-of-bounds frame %+v", frame)
			}
			if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
				t.Fatalf("an accepted request was answered: %d %q", rec.Code, rec.Body.Bytes())
			}
			return
		}
		if frame != nil {
			t.Fatal("a rejected request returned a frame")
		}
		if prefix == "" {
			prefix = "bad PGM frame: "
		}
		if !strings.HasPrefix(err.Error(), prefix) {
			t.Fatalf("error %q, want prefix %q", err, prefix)
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("rejection answered %d, want 400", rec.Code)
		}
		dec := json.NewDecoder(rec.Body)
		var er errorResponse
		if err := dec.Decode(&er); err != nil {
			t.Fatalf("rejection body does not decode: %v", err)
		}
		if er.Error != err.Error() {
			t.Fatalf("rejection message %q, error %q", er.Error, err)
		}
		if dec.More() {
			t.Fatal("a rejection wrote more than one answer")
		}
	})
}

// roundTripFunc is a canned transport.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzDetectResponse serves an arbitrary status, Retry-After and body
// through the shared one-attempt round trip. It must never panic; a
// non-200 must come back as an *APIError whose RetryAfter is in [0, 24h];
// a 200 must return exactly the detections of a body that decodes as one
// DetectResponse, and an error with no detections for any other body.
func FuzzDetectResponse(f *testing.F) {
	f.Add(200, "", []byte(`{"stream":3,"detections":[{"x":1,"y":2,"w":32,"h":64,"score":0.5}]}`+"\n"))
	f.Add(200, "", []byte(`{"stream":0,"detections":[]}`))
	f.Add(200, "", []byte(`{"stream":0,"detections":[{"x":1,"y":2,`))
	f.Add(200, "", []byte(`{"stream":0,"detections":[]} trailing`))
	f.Add(200, "", []byte(`{"detections":[{"x":"1"}]}`))
	f.Add(200, "", []byte(`{"detections":[{"x":1e400}]}`))
	f.Add(200, "", []byte(`null`))
	f.Add(200, "", []byte(``))
	f.Add(429, "0.250", []byte(`{"error":"admission queue full"}`))
	f.Add(503, "1e300", []byte(`{"error":"circuit breaker open"}`))
	f.Add(503, "-1", []byte(`not json`))
	f.Add(503, "NaN", []byte(``))
	f.Add(504, "Wed, 21 Oct 2015 07:28:00 GMT", []byte(`{"error":""}`))
	f.Add(400, "", []byte(`{"error":"bad PGM frame: short"}`))
	f.Add(302, "", []byte(``))
	f.Add(0, "1", []byte(`{}`))

	f.Fuzz(func(t *testing.T, status int, retryAfter string, body []byte) {
		hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			h := http.Header{}
			h.Set("Retry-After", retryAfter)
			return &http.Response{
				StatusCode: status,
				Header:     h,
				Body:       io.NopCloser(bytes.NewReader(body)),
				Request:    r,
			}, nil
		})}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		dets, err := PostDetect(ctx, hc, "http://replica", 3, []byte("P5\n1 1\n255\n\x00"))

		if status != http.StatusOK {
			var ae *APIError
			if !errors.As(err, &ae) {
				t.Fatalf("HTTP %d: err %v, want *APIError", status, err)
			}
			if ae.Status != status || ae.RetryAfter < 0 || ae.RetryAfter > 24*time.Hour {
				t.Fatalf("HTTP %d: APIError %+v", status, ae)
			}
			if dets != nil {
				t.Fatal("an error answer returned detections")
			}
			return
		}
		var dr DetectResponse
		decodeErr := json.Unmarshal(body, &dr)
		if err != nil {
			if dets != nil {
				t.Fatalf("a failed decode returned detections: %v", err)
			}
			if decodeErr == nil {
				t.Fatalf("rejected a body that decodes: %v", err)
			}
			return
		}
		if decodeErr != nil {
			t.Fatalf("accepted a body that does not decode: %v", decodeErr)
		}
		want := make([]eval.Detection, 0, len(dr.Detections))
		for _, d := range dr.Detections {
			want = append(want, eval.Detection{Box: geom.XYWH(d.X, d.Y, d.W, d.H), Score: d.Score})
		}
		if !reflect.DeepEqual(dets, want) {
			t.Fatalf("detections %v, want %v", dets, want)
		}
	})
}

// TestReadDetectHeaderOnlyBodyAllocs: a 17-byte body whose header claims
// 64 Mpx must be answered 400 for under 64 KiB of allocation, not for the
// 64 MB the header asks for. Both servers read /detect through ReadDetect.
func TestReadDetectHeaderOnlyBodyAllocs(t *testing.T) {
	least := uint64(math.MaxUint64)
	for range 3 {
		req := httptest.NewRequest(http.MethodPost, "/detect", strings.NewReader("P5\n8192 8192\n255\n"))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := ReadDetect(rec, req, time.Second, 1<<30, nil)
		runtime.ReadMemStats(&after)
		if err == nil || rec.Code != http.StatusBadRequest {
			t.Fatalf("header-only body: err %v, status %d; want a 400", err, rec.Code)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Errorf("a 17-byte body allocated %d B, want < 64 KiB", least)
	}
}
