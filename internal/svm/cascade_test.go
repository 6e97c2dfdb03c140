package svm

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// cascadeTestModel builds a deterministic pseudo-random model for the given
// window geometry.
func cascadeTestModel(seed int64, rows, cols, blockLen int) *Model {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, rows*cols*blockLen)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return &Model{W: w, B: rng.NormFloat64()}
}

func TestNewCascadeTables(t *testing.T) {
	const rows, cols, blockLen = 6, 3, 4
	m := cascadeTestModel(1, rows, cols, blockLen)
	c, err := NewCascade(m, cols, rows, blockLen)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != rows || c.Cols != cols || c.BlockLen != blockLen {
		t.Fatalf("geometry %d/%d/%d", c.Rows, c.Cols, c.BlockLen)
	}
	// Order is a permutation of 0..rows-1 ranked by descending RowBound.
	seen := make([]bool, rows)
	for k, r := range c.Order {
		if r < 0 || int(r) >= rows || seen[r] {
			t.Fatalf("order is not a permutation: %v", c.Order)
		}
		seen[r] = true
		if k > 0 && c.RowBound[c.Order[k-1]] < c.RowBound[r] {
			t.Errorf("stage %d bound %g exceeds stage %d bound %g",
				k, c.RowBound[r], k-1, c.RowBound[c.Order[k-1]])
		}
	}
	// RowBound[r] is the sum of per-block L2 norms of row r.
	rowLen := cols * blockLen
	for r := 0; r < rows; r++ {
		var want float64
		for x := 0; x < cols; x++ {
			var ss float64
			for _, v := range m.W[r*rowLen+x*blockLen : r*rowLen+(x+1)*blockLen] {
				ss += v * v
			}
			want += math.Sqrt(ss)
		}
		if math.Abs(c.RowBound[r]-want) > 1e-12 {
			t.Errorf("row %d bound %g, want %g", r, c.RowBound[r], want)
		}
	}
}

func TestNewCascadeRejectsBadInput(t *testing.T) {
	m := cascadeTestModel(2, 4, 2, 3)
	cases := []struct {
		name string
		run  func() error
	}{
		{"nil model", func() error { _, err := NewCascade(nil, 2, 4, 3); return err }},
		{"zero cols", func() error { _, err := NewCascade(m, 0, 4, 3); return err }},
		{"zero rows", func() error { _, err := NewCascade(m, 2, 0, 3); return err }},
		{"zero blockLen", func() error { _, err := NewCascade(m, 2, 4, 0); return err }},
		{"length mismatch", func() error { _, err := NewCascade(m, 3, 4, 3); return err }},
		{"too many stages", func() error {
			big := &Model{W: make([]float64, maxCascadeRows+1)}
			_, err := NewCascade(big, 1, maxCascadeRows+1, 1)
			return err
		}},
		{"NaN weight", func() error {
			bad := m.Clone()
			bad.W[5] = math.NaN()
			_, err := NewCascade(bad, 2, 4, 3)
			return err
		}},
		{"Inf weight", func() error {
			bad := m.Clone()
			bad.W[0] = math.Inf(-1)
			_, err := NewCascade(bad, 2, 4, 3)
			return err
		}},
		{"Inf bias", func() error {
			bad := m.Clone()
			bad.B = math.Inf(1)
			_, err := NewCascade(bad, 2, 4, 3)
			return err
		}},
	}
	for _, c := range cases {
		if c.run() == nil {
			t.Errorf("%s: NewCascade succeeded, want error", c.name)
		}
	}
}

func TestCascadeCalibrateFloors(t *testing.T) {
	const rows, cols, blockLen = 5, 2, 3
	m := cascadeTestModel(3, rows, cols, blockLen)
	c, err := NewCascade(m, cols, rows, blockLen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	positives := make([][]float64, 20)
	for i := range positives {
		x := make([]float64, rows*cols*blockLen)
		for j := range x {
			x[j] = rng.Float64()
		}
		positives[i] = x
	}
	const margin = 0.125
	floors, err := c.Calibrate(m, positives, margin)
	if err != nil {
		t.Fatal(err)
	}
	if len(floors) != rows || c.Margin != margin {
		t.Fatalf("floors %v margin %g", floors, c.Margin)
	}
	// Every calibration positive clears every floor by at least the margin.
	for i, x := range positives {
		p, err := c.StagePartials(m, x)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range p {
			if v < floors[k] {
				t.Fatalf("positive %d falls below floor %d: %g < %g", i, k, v, floors[k])
			}
		}
	}
	// So the miss rate on the calibration set is zero.
	miss, err := c.MissRate(m, positives)
	if err != nil {
		t.Fatal(err)
	}
	if miss != 0 {
		t.Errorf("calibration-set miss rate %g, want 0", miss)
	}
	// And at least one floor equals some positive's partial minus margin.
	// (Floors are tight minima by construction.)
	found := false
	for _, x := range positives {
		p, _ := c.StagePartials(m, x)
		for k, v := range p {
			if v-margin == floors[k] {
				found = true
			}
		}
	}
	if !found {
		t.Error("no floor is tight against a calibration positive")
	}

	if _, err := c.Calibrate(m, nil, margin); err == nil {
		t.Error("Calibrate with no positives succeeded")
	}
	if _, err := c.Calibrate(m, positives, -1); err == nil {
		t.Error("Calibrate with negative margin succeeded")
	}
	if _, err := c.Calibrate(m, positives, math.NaN()); err == nil {
		t.Error("Calibrate with NaN margin succeeded")
	}
}

func TestCascadeCalibrationRoundTrip(t *testing.T) {
	const rows, cols, blockLen = 4, 2, 3
	m := cascadeTestModel(5, rows, cols, blockLen)
	c, err := NewCascade(m, cols, rows, blockLen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	pos := make([][]float64, 8)
	for i := range pos {
		x := make([]float64, rows*cols*blockLen)
		for j := range x {
			x[j] = rng.Float64()
		}
		pos[i] = x
	}
	floors, err := c.Calibrate(m, pos, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m.Calib = &CascadeCalib{Stages: rows, Margin: 0.25, Thresholds: floors}

	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Calib == nil {
		t.Fatal("calibration lost in round trip")
	}
	if got.Calib.Stages != rows || got.Calib.Margin != 0.25 {
		t.Fatalf("round trip calib %+v", got.Calib)
	}
	for i, v := range got.Calib.Thresholds {
		if v != floors[i] {
			t.Errorf("threshold %d: %g != %g", i, v, floors[i])
		}
	}
	// A fresh cascade accepts the deserialized calibration.
	c2, err := NewCascade(got, cols, rows, blockLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.AttachCalibration(got.Calib); err != nil {
		t.Fatal(err)
	}
	// Stage schedules derived from identical weights agree, so the floors
	// mean the same thing to the reader.
	for k := range c.Order {
		if c.Order[k] != c2.Order[k] {
			t.Fatalf("stage schedule diverged after round trip: %v vs %v", c.Order, c2.Order)
		}
	}
	// Clone is deep: mutating the clone's thresholds leaves the original.
	cl := got.Clone()
	cl.Calib.Thresholds[0] = 999
	if got.Calib.Thresholds[0] == 999 {
		t.Error("Clone shares calibration thresholds")
	}
}

func TestReadRejectsBadCascadeSections(t *testing.T) {
	valid := "pdsvm 1\ndim 2\nbias 0\nw\n1\n2\n"
	cases := []struct {
		name, tail string
	}{
		{"garbage after weights", "hello\n"},
		{"zero stages", "cascade 0\nmargin 0\nt\n"},
		{"negative stages", "cascade -1\nmargin 0\nt\n"},
		{"implausible stages", "cascade 99999\nmargin 0\nt\n"},
		{"missing margin", "cascade 2\n"},
		{"NaN margin", "cascade 2\nmargin NaN\nt\n0\n0\n"},
		{"negative margin", "cascade 2\nmargin -0.5\nt\n0\n0\n"},
		{"bad threshold header", "cascade 2\nmargin 0\nx\n0\n0\n"},
		{"missing threshold", "cascade 2\nmargin 0\nt\n0\n"},
		{"NaN threshold", "cascade 2\nmargin 0\nt\n0\nNaN\n"},
		{"garbage threshold", "cascade 2\nmargin 0\nt\n0\nzzz\n"},
		{"trailing after cascade", "cascade 1\nmargin 0\nt\n0\nextra\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(valid + c.tail)); err == nil {
			t.Errorf("%s: Read succeeded, want error", c.name)
		}
	}
	// Sanity: the base model without a tail still parses.
	if _, err := Read(strings.NewReader(valid)); err != nil {
		t.Fatalf("base model: %v", err)
	}
	// Blank trailing lines are tolerated (editors add them).
	if _, err := Read(strings.NewReader(valid + "\n\n")); err != nil {
		t.Errorf("blank trailing lines rejected: %v", err)
	}
}

func TestAttachCalibrationValidates(t *testing.T) {
	m := cascadeTestModel(7, 4, 2, 3)
	c, err := NewCascade(m, 2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachCalibration(nil); err == nil {
		t.Error("nil calibration attached")
	}
	if err := c.AttachCalibration(&CascadeCalib{Stages: 3, Thresholds: make([]float64, 3)}); err == nil {
		t.Error("stage-count mismatch attached")
	}
	if err := c.AttachCalibration(&CascadeCalib{Stages: 4, Thresholds: make([]float64, 4)}); err != nil {
		t.Errorf("valid calibration rejected: %v", err)
	}
}
