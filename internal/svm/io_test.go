package svm

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestModelRoundTrip(t *testing.T) {
	m := &Model{W: []float64{0.5, -1.25, 3e-17, 0, 42}, B: -0.75}
	for i := range 2 * weightChunk { // so W grows while it is read
		m.W = append(m.W, math.Sin(float64(i)))
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.B != m.B || len(got.W) != len(m.W) || cap(got.W) != len(m.W) {
		t.Fatalf("round trip: got bias %g dim %d (cap %d)", got.B, len(got.W), cap(got.W))
	}
	for i := range m.W {
		if got.W[i] != m.W[i] {
			t.Errorf("weight %d: %g != %g", i, got.W[i], m.W[i])
		}
	}
}

func TestReadRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"NaN bias", "pdsvm 1\ndim 2\nbias NaN\nw\n1\n2\n"},
		{"+Inf bias", "pdsvm 1\ndim 2\nbias +Inf\nw\n1\n2\n"},
		{"NaN weight", "pdsvm 1\ndim 2\nbias 0\nw\n1\nNaN\n"},
		{"-Inf weight", "pdsvm 1\ndim 2\nbias 0\nw\n-Inf\n2\n"},
		{"Infinity weight", "pdsvm 1\ndim 1\nbias 0\nw\nInfinity\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: Read succeeded, want error", c.name)
		}
	}
}

func TestWriteOfNonFiniteModelDoesNotReload(t *testing.T) {
	// A model corrupted in memory (diverged training) still serializes, but
	// the reader must refuse to bring it back.
	m := &Model{W: []float64{1, math.NaN()}, B: 0}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("reloaded a model with a NaN weight")
	}
}

func TestReadRejectsMalformedHeaders(t *testing.T) {
	cases := []string{
		"",
		"wrong 1\ndim 1\nbias 0\nw\n1\n",
		"pdsvm 1\ndim 0\nbias 0\nw\n",
		"pdsvm 1\ndim -3\nbias 0\nw\n",
		"pdsvm 1\ndim 99999999999\nbias 0\nw\n",
		"pdsvm 1\ndim 2\nbias 0\nw\n1\n", // missing weight
		"pdsvm 1\ndim 1\nbias 0\nnotw\n1\n",
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", src)
		}
	}
}

// TestReadAllocatesWhatArrives: a 30-byte model file whose header claims
// 2^24 weights must fail for under 64 KiB of allocation, not for the
// 128 MB the header asks for, with the message a short file always gave.
func TestReadAllocatesWhatArrives(t *testing.T) {
	const src = "pdsvm 1\ndim 16777216\nbias 0\nw\n"
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(strings.NewReader(src))
		runtime.ReadMemStats(&after)
		if want := "svm: reading weight 0: unexpected EOF"; err == nil || err.Error() != want {
			t.Fatalf("error %v, want %q", err, want)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Errorf("a %d-byte model allocated %d B, want < 64 KiB", len(src), least)
	}
}

// TestReadAllocsDoNotScaleWithDim: reading a model costs a fixed handful
// of allocations plus the weight vector's growth, never one per weight
// line, so the budget holds from 16 weights to three weight chunks.
func TestReadAllocsDoNotScaleWithDim(t *testing.T) {
	for _, dim := range []int{16, 4608, 3 * weightChunk} {
		m := &Model{W: make([]float64, dim), B: 0.5}
		for i := range m.W {
			m.W[i] = math.Sin(float64(i))
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		src := buf.Bytes()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Read(bytes.NewReader(src)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("dim %d: %v allocs per Read", dim, allocs)
		if allocs > 24 {
			t.Errorf("dim %d: %v allocs per Read, want <= 24", dim, allocs)
		}
	}
}
