package svm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// The model file format is a small line-oriented text format in the spirit
// of LibLinear's model files:
//
//	pdsvm 1
//	dim <n>
//	bias <b>
//	w
//	<w0>
//	<w1>
//	...
//
// Weights use %.17g so the round trip is exact.
//
// A model carrying a soft-cascade calibration (pdtrain -cascade-calibrate)
// appends one optional trailing section — older readers that stop after the
// weights still load the plain model:
//
//	cascade <stages>
//	margin <m>
//	t
//	<t0>
//	...
//
// with exactly <stages> per-stage floors in stage-rank order. The stage
// schedule is not stored: it is recomputed deterministically from the
// weights and the window geometry (NewCascade).

const modelMagic = "pdsvm 1"

// Write serializes m to w.
func (m *Model) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, modelMagic)
	fmt.Fprintf(bw, "dim %d\n", len(m.W))
	fmt.Fprintf(bw, "bias %.17g\n", m.B)
	fmt.Fprintln(bw, "w")
	for _, v := range m.W {
		fmt.Fprintf(bw, "%.17g\n", v)
	}
	if m.Calib != nil {
		if err := m.Calib.Validate(); err != nil {
			return err
		}
		fmt.Fprintf(bw, "cascade %d\n", m.Calib.Stages)
		fmt.Fprintf(bw, "margin %.17g\n", m.Calib.Margin)
		fmt.Fprintln(bw, "t")
		for _, v := range m.Calib.Thresholds {
			fmt.Fprintf(bw, "%.17g\n", v)
		}
	}
	return bw.Flush()
}

// Save writes m to the named file.
func (m *Model) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read deserializes a model written by Write. Lines are parsed in the
// scanner's buffer, so reading a model allocates a fixed handful of times
// plus the weight vector, whatever its dimension; strings are built only
// for the headers and for error messages.
func Read(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	// next returns the next line without surrounding space. It aliases the
	// scanner's buffer, so it is only valid until the following call.
	next := func() ([]byte, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.ErrUnexpectedEOF
		}
		return bytes.TrimSpace(sc.Bytes()), nil
	}
	line, err := next()
	if err != nil {
		return nil, fmt.Errorf("svm: reading magic: %w", err)
	}
	if string(line) != modelMagic {
		return nil, fmt.Errorf("svm: bad magic %q", line)
	}
	line, err = next()
	if err != nil {
		return nil, fmt.Errorf("svm: reading dim: %w", err)
	}
	var dim int
	if _, err := fmt.Sscanf(string(line), "dim %d", &dim); err != nil {
		return nil, fmt.Errorf("svm: parsing %q: %w", line, err)
	}
	if dim <= 0 || dim > 1<<24 {
		return nil, fmt.Errorf("svm: implausible dimension %d", dim)
	}
	line, err = next()
	if err != nil {
		return nil, fmt.Errorf("svm: reading bias: %w", err)
	}
	var biasStr string
	if _, err := fmt.Sscanf(string(line), "bias %s", &biasStr); err != nil {
		return nil, fmt.Errorf("svm: parsing %q: %w", line, err)
	}
	bias, err := strconv.ParseFloat(biasStr, 64)
	if err != nil {
		return nil, fmt.Errorf("svm: parsing bias %q: %w", biasStr, err)
	}
	// ParseFloat accepts "NaN" and "Inf", but a non-finite coefficient
	// poisons every window score it touches (NaN compares false with any
	// threshold, so detections silently vanish). A model file carrying one
	// is corrupt; refuse it here rather than debug it downstream.
	if !isFinite(bias) {
		return nil, fmt.Errorf("svm: non-finite bias %q", biasStr)
	}
	line, err = next()
	if err != nil {
		return nil, fmt.Errorf("svm: reading weight header: %w", err)
	}
	if string(line) != "w" {
		return nil, fmt.Errorf("svm: expected weight header, got %q", line)
	}
	// W grows as weights arrive, so a header claiming 2^24 of them costs
	// what the file holds, not 128 MB.
	m := &Model{W: make([]float64, 0, min(dim, weightChunk)), B: bias}
	for i := 0; i < dim; i++ {
		line, err = next()
		if err != nil {
			return nil, fmt.Errorf("svm: reading weight %d: %w", i, err)
		}
		v, err := strconv.ParseFloat(string(line), 64)
		if err != nil {
			return nil, fmt.Errorf("svm: parsing weight %d %q: %w", i, line, err)
		}
		if !isFinite(v) {
			return nil, fmt.Errorf("svm: non-finite weight %d %q", i, line)
		}
		if len(m.W) == cap(m.W) {
			m.W = append(make([]float64, 0, min(dim, 2*cap(m.W))), m.W...)
		}
		m.W = append(m.W, v)
	}
	// Optional trailing cascade-calibration section. Anything else after
	// the weights is a malformed or truncated-then-resumed file; refuse it
	// instead of silently dropping data.
	for sc.Scan() {
		line = bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		cal, err := readCascadeSection(string(line), next)
		if err != nil {
			return nil, err
		}
		m.Calib = cal
		// Nothing may follow the calibration.
		for sc.Scan() {
			if line := bytes.TrimSpace(sc.Bytes()); len(line) != 0 {
				return nil, fmt.Errorf("svm: trailing data after cascade section: %q", line)
			}
		}
		break
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// readCascadeSection parses the optional trailing calibration block, whose
// header line has already been consumed into head.
func readCascadeSection(head string, next func() ([]byte, error)) (*CascadeCalib, error) {
	var stages int
	if _, err := fmt.Sscanf(head, "cascade %d", &stages); err != nil {
		return nil, fmt.Errorf("svm: unexpected trailing data %q", head)
	}
	if stages < 1 || stages > maxCascadeRows {
		return nil, fmt.Errorf("svm: implausible cascade stage count %d", stages)
	}
	line, err := next()
	if err != nil {
		return nil, fmt.Errorf("svm: reading cascade margin: %w", err)
	}
	var marginStr string
	if _, err := fmt.Sscanf(string(line), "margin %s", &marginStr); err != nil {
		return nil, fmt.Errorf("svm: parsing %q: %w", line, err)
	}
	margin, err := strconv.ParseFloat(marginStr, 64)
	if err != nil {
		return nil, fmt.Errorf("svm: parsing cascade margin %q: %w", marginStr, err)
	}
	line, err = next()
	if err != nil {
		return nil, fmt.Errorf("svm: reading cascade threshold header: %w", err)
	}
	if string(line) != "t" {
		return nil, fmt.Errorf("svm: expected cascade threshold header, got %q", line)
	}
	cal := &CascadeCalib{Stages: stages, Margin: margin, Thresholds: make([]float64, stages)}
	for i := 0; i < stages; i++ {
		line, err = next()
		if err != nil {
			return nil, fmt.Errorf("svm: reading cascade threshold %d: %w", i, err)
		}
		cal.Thresholds[i], err = strconv.ParseFloat(string(line), 64)
		if err != nil {
			return nil, fmt.Errorf("svm: parsing cascade threshold %d %q: %w", i, line, err)
		}
	}
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	return cal, nil
}

// weightChunk is the most weights (32 KiB) Read allocates for before it
// has read any.
const weightChunk = 4096

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Load reads a model from the named file.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
