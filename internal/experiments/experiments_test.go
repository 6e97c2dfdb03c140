package experiments

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/imgproc"
	"repro/internal/svm"
)

// The quick protocol still trains a real model, so share one study across
// tests.
var (
	studyOnce sync.Once
	study     *Study
	studyErr  error
)

func quickStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		o := QuickOptions()
		o.Scales = []float64{1.1, 1.3, 1.5, 1.8}
		study, studyErr = RunStudy(o, []float64{1.0, 1.1})
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study
}

func TestTable1Shape(t *testing.T) {
	s := quickStudy(t)
	r := s.Table1
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	if r.TestPos != 100 || r.TestNeg != 400 {
		t.Errorf("test counts %d/%d", r.TestPos, r.TestNeg)
	}
	// Base accuracy must be strong (paper: 98.04% on INRIA; synthetic data
	// differs but must be clearly separable).
	if r.BaseAcc < 0.9 {
		t.Errorf("base accuracy %.3f < 0.9", r.BaseAcc)
	}
	// Counts must be internally consistent.
	if r.BaseTP > r.TestPos || r.BaseTN > r.TestNeg {
		t.Error("base counts exceed class sizes")
	}
	for _, row := range r.Rows {
		if row.ImageTP > r.TestPos || row.HOGTP > r.TestPos {
			t.Errorf("scale %v TP exceeds positives", row.Scale)
		}
		if row.ImageTN > r.TestNeg || row.HOGTN > r.TestNeg {
			t.Errorf("scale %v TN exceeds negatives", row.Scale)
		}
		if row.ImageAcc < 0.5 || row.HOGAcc < 0.5 {
			t.Errorf("scale %v: accuracy collapsed (img %.3f, hog %.3f)",
				row.Scale, row.ImageAcc, row.HOGAcc)
		}
	}
}

// TestPaperShapeClaim is experiment E1/E7's qualitative check: at small
// scales the proposed method is competitive with (paper: better than) the
// conventional one, and its relative advantage shrinks or reverses as the
// scale grows.
func TestPaperShapeClaim(t *testing.T) {
	s := quickStudy(t)
	rows := s.Table1.Rows
	// At 1.1 the HOG method must be within 2% of the image method (the
	// paper's "not affected ... more than 2%" claim).
	first := rows[0]
	if first.HOGAcc < first.ImageAcc-0.02 {
		t.Errorf("scale 1.1: HOG %.4f trails image %.4f by more than 2%%",
			first.HOGAcc, first.ImageAcc)
	}
	// The HOG-vs-image advantage at the largest scale must not exceed the
	// advantage at the smallest scale (monotone-ish degradation).
	last := rows[len(rows)-1]
	advFirst := first.HOGAcc - first.ImageAcc
	advLast := last.HOGAcc - last.ImageAcc
	if advLast > advFirst+0.02 {
		t.Errorf("advantage grew with scale: %+.4f at %.1f vs %+.4f at %.1f",
			advFirst, first.Scale, advLast, last.Scale)
	}
}

func TestTable1Render(t *testing.T) {
	s := quickStudy(t)
	out := s.Table1.Render()
	for _, want := range []string{"Scale", "1.0", "1.1", "TP(HOG)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCrossoverScale(t *testing.T) {
	r := &Table1Result{Rows: []Table1Row{
		{Scale: 1.1, ImageAcc: 0.90, HOGAcc: 0.95},
		{Scale: 1.3, ImageAcc: 0.90, HOGAcc: 0.91},
		{Scale: 1.5, ImageAcc: 0.90, HOGAcc: 0.88},
		{Scale: 1.8, ImageAcc: 0.89, HOGAcc: 0.80},
	}}
	if got := r.CrossoverScale(); got != 1.5 {
		t.Errorf("crossover = %v, want 1.5", got)
	}
	all := &Table1Result{Rows: []Table1Row{{Scale: 1.1, ImageAcc: 0.9, HOGAcc: 0.95}}}
	if got := all.CrossoverScale(); got != 0 {
		t.Errorf("no crossover should return 0, got %v", got)
	}
}

func TestFigure4Stats(t *testing.T) {
	s := quickStudy(t)
	if len(s.ROC) != 2 {
		t.Fatalf("ROC pairs = %d, want 2", len(s.ROC))
	}
	base := s.ROC[0]
	if base.Scale != 1.0 {
		t.Fatal("first pair should be native scale")
	}
	// At native scale both curves coincide.
	if base.ImageAUC != base.HOGAUC || base.ImageEER != base.HOGEER {
		t.Error("native-scale methods must coincide")
	}
	for _, p := range s.ROC {
		if p.ImageAUC < 0.8 || p.HOGAUC < 0.8 {
			t.Errorf("scale %v AUC too low: img %.3f hog %.3f", p.Scale, p.ImageAUC, p.HOGAUC)
		}
		if p.ImageEER > 0.3 || p.HOGEER > 0.3 {
			t.Errorf("scale %v EER too high: img %.3f hog %.3f", p.Scale, p.ImageEER, p.HOGEER)
		}
		// AUC and EER must be mutually consistent: a good AUC implies a
		// low EER.
		if p.HOGAUC > 0.95 && p.HOGEER > 0.15 {
			t.Errorf("scale %v: inconsistent AUC %.3f / EER %.3f", p.Scale, p.HOGAUC, p.HOGEER)
		}
	}
	out := RenderROC(s.ROC)
	if !strings.Contains(out, "AUC(HOG)") {
		t.Error("ROC render malformed")
	}
}

func TestQuantizedAccuracy(t *testing.T) {
	o := QuickOptions()
	full, quant, err := QuantizedAccuracy(o, func(m *svm.Model) (*svm.Model, error) {
		q, err := svm.Quantize(m, fixed.Q(3, 12))
		if err != nil {
			return nil, err
		}
		return q.Dequantize(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if full < 0.9 {
		t.Errorf("full accuracy %.3f < 0.9", full)
	}
	// Q3.12 weights must cost (almost) nothing.
	if full-quant > 0.02 {
		t.Errorf("quantization cost %.4f > 2%%", full-quant)
	}
}

func TestTable1FixedPoint(t *testing.T) {
	o := QuickOptions()
	o.Scales = []float64{1.2}
	o.FixedPoint = true
	r, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.FixedAcc == 0 {
		t.Fatal("fixed-point accuracy not computed")
	}
	// The shift-and-add datapath must track the float feature scaler.
	if diff := row.HOGAcc - row.FixedAcc; diff > 0.03 || diff < -0.03 {
		t.Errorf("fixed scaler accuracy %.4f far from float %.4f", row.FixedAcc, row.HOGAcc)
	}
}

func TestOptionsErrors(t *testing.T) {
	o := QuickOptions()
	o.Protocol.TrainPos = 0
	if _, err := Table1(o); err == nil {
		t.Error("broken protocol should error")
	}
}

// TestScoreSetOrderAndError pins scoreSet's contract at any worker count:
// scores align with set order, and a failing window's error is returned.
func TestScoreSetOrderAndError(t *testing.T) {
	set := &dataset.Set{}
	for i := 0; i < 37; i++ {
		img := imgproc.NewGray(2, 2)
		img.Pix[0] = uint8(i)
		set.Images = append(set.Images, img)
		set.Labels = append(set.Labels, 1)
	}
	score := func(img *imgproc.Gray) (float64, error) { return float64(img.Pix[0]), nil }
	errBad := errors.New("bad window")
	for _, workers := range []int{0, 1, 4} {
		got, err := scoreSet(set, workers, score)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, s := range got {
			if s != float64(i) {
				t.Fatalf("workers=%d: score[%d] = %v, want %d", workers, i, s, i)
			}
		}
		_, err = scoreSet(set, workers, func(img *imgproc.Gray) (float64, error) {
			if img.Pix[0] == 17 {
				return 0, errBad
			}
			return score(img)
		})
		if !errors.Is(err, errBad) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errBad)
		}
	}
}
