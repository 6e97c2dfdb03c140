// Package experiments implements the paper's evaluation protocol end to
// end: the Section 4 scale study comparing image-scaling against
// HOG-feature-scaling (Table 1), the ROC analysis with AUC and EER
// (Figure 4), the extended crossover sweep, and shared helpers for the
// command-line tools and benchmarks that regenerate each artifact.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/imgproc"
	"repro/internal/par"
	"repro/internal/svm"
)

// Options bundles everything a protocol run needs.
type Options struct {
	// Seed drives the synthetic dataset.
	Seed int64
	// Protocol sets the train/test sizes (PaperProtocol reproduces the
	// 1126/4530 test counts).
	Protocol dataset.Protocol
	// Scales lists the magnifications to evaluate (the paper uses
	// 1.1..1.5 for Table 1 and up to 2.0 in the text).
	Scales []float64
	// Detector is the HOG/window configuration.
	Detector core.Config
	// Train configures the SVM solver.
	Train core.TrainOptions
	// Parallelism bounds the worker goroutines (0 = GOMAXPROCS).
	Parallelism int
	// FixedPoint additionally scores the proposed method through the
	// shift-and-add fixed-point scaler (the hardware datapath).
	FixedPoint bool
	// NativeRender renders the scaled test sets at their target
	// resolution instead of up-sampling the base renders by
	// interpolation. The paper up-sampled (Section 4), so the default
	// (false) follows the paper; native rendering is the
	// no-interpolation-artifact ablation.
	NativeRender bool
}

// DefaultOptions returns the paper's Table 1 protocol at full size.
func DefaultOptions() Options {
	return Options{
		Seed:     2017,
		Protocol: dataset.PaperProtocol(),
		Scales:   []float64{1.1, 1.2, 1.3, 1.4, 1.5},
		Detector: core.DefaultConfig(),
		Train:    core.DefaultTrainOptions(),
	}
}

// QuickOptions returns a fast, small-protocol variant for tests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Protocol = dataset.SmallProtocol()
	return o
}

// Table1Row is one scale's outcome in both configurations of Figure 3.
type Table1Row struct {
	Scale float64
	// Image* is the conventional method (resize the image, then HOG);
	// HOG* is the proposed method (HOG, then resize the features).
	ImageAcc, HOGAcc   float64
	ImageTP, HOGTP     int
	ImageTN, HOGTN     int
	FixedAcc           float64 // proposed method through the fixed-point scaler (if enabled)
	ImageConf, HOGConf eval.Confusion
}

// Table1Result is the full reproduction of Table 1.
type Table1Result struct {
	// Base is the native-scale (1.0) evaluation: one shared row since both
	// methods coincide without resampling.
	BaseAcc    float64
	BaseTP     int
	BaseTN     int
	BaseConf   eval.Confusion
	Rows       []Table1Row
	TestPos    int
	TestNeg    int
	TrainedOn  int
	Descriptor int
}

// trained bundles the shared state of one protocol run.
type trained struct {
	det   *core.Detector
	gen   *dataset.Generator
	specs *dataset.SpecSet
}

// setup trains the model and prepares test specs.
func setup(o Options) (*trained, error) {
	gen := dataset.New(o.Seed)
	split, err := gen.MakeSplit(o.Protocol)
	if err != nil {
		return nil, err
	}
	det, err := core.Train(split.Train, o.Detector, o.Train)
	if err != nil {
		return nil, err
	}
	return &trained{det: det, gen: gen, specs: split.TestSpecs}, nil
}

// testSet materializes the test windows at a scale per the configured
// protocol variant.
func (tr *trained) testSet(o Options, scale float64) (*dataset.Set, error) {
	if o.NativeRender {
		return tr.gen.RenderAt(tr.specs, scale)
	}
	return tr.gen.UpsampleAt(tr.specs, scale, o.Detector.Interp)
}

// scoreSet scores every window of a set with one scenario function,
// fanning out across workers (<= 0 means GOMAXPROCS). Results align with
// set order; on failure the first error is returned and the remaining
// windows are not scored.
func scoreSet(set *dataset.Set, workers int, score func(img *imgproc.Gray) (float64, error)) ([]float64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scores := make([]float64, set.Len())
	err := par.Do(context.Background(), set.Len(), workers, func(i int) error {
		var err error
		scores[i], err = score(set.Images[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// Table1 reproduces the paper's Table 1: detection accuracy and true
// positive/negative counts per scale for both scaling methods.
func Table1(o Options) (*Table1Result, error) {
	tr, err := setup(o)
	if err != nil {
		return nil, err
	}
	return table1With(tr, o)
}

func table1With(tr *trained, o Options) (*Table1Result, error) {
	model := tr.det.Model()
	cfg := tr.det.Config()
	res := &Table1Result{
		TestPos:    countLabels(tr.specs.Labels, 1),
		TestNeg:    countLabels(tr.specs.Labels, -1),
		TrainedOn:  o.Protocol.TrainPos + o.Protocol.TrainNeg,
		Descriptor: cfg.DescriptorLen(),
	}

	// Native scale: both methods coincide.
	base, err := tr.gen.RenderAt(tr.specs, 1.0)
	if err != nil {
		return nil, err
	}
	scores, err := scoreSet(base, o.Parallelism, func(img *imgproc.Gray) (float64, error) {
		return core.ClassifyImageScaled(model, img, cfg)
	})
	if err != nil {
		return nil, err
	}
	conf, err := eval.Confuse(scores, base.Labels, cfg.Threshold)
	if err != nil {
		return nil, err
	}
	res.BaseAcc = conf.Accuracy()
	res.BaseTP = conf.TP
	res.BaseTN = conf.TN
	res.BaseConf = conf

	for _, scale := range o.Scales {
		set, err := tr.testSet(o, scale)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Scale: scale}

		imgScores, err := scoreSet(set, o.Parallelism, func(img *imgproc.Gray) (float64, error) {
			return core.ClassifyImageScaled(model, img, cfg)
		})
		if err != nil {
			return nil, err
		}
		hogScores, err := scoreSet(set, o.Parallelism, func(img *imgproc.Gray) (float64, error) {
			return core.ClassifyFeatureScaled(model, img, cfg)
		})
		if err != nil {
			return nil, err
		}
		if row.ImageConf, err = eval.Confuse(imgScores, set.Labels, cfg.Threshold); err != nil {
			return nil, err
		}
		if row.HOGConf, err = eval.Confuse(hogScores, set.Labels, cfg.Threshold); err != nil {
			return nil, err
		}
		row.ImageAcc = row.ImageConf.Accuracy()
		row.HOGAcc = row.HOGConf.Accuracy()
		row.ImageTP, row.ImageTN = row.ImageConf.TP, row.ImageConf.TN
		row.HOGTP, row.HOGTN = row.HOGConf.TP, row.HOGConf.TN

		if o.FixedPoint {
			fixedScores, err := scoreSet(set, o.Parallelism, func(img *imgproc.Gray) (float64, error) {
				return core.ClassifyFeatureScaledFixed(model, img, cfg)
			})
			if err != nil {
				return nil, err
			}
			fc, err := eval.Confuse(fixedScores, set.Labels, cfg.Threshold)
			if err != nil {
				return nil, err
			}
			row.FixedAcc = fc.Accuracy()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func countLabels(labels []int, want int) int {
	n := 0
	for _, l := range labels {
		if l == want {
			n++
		}
	}
	return n
}

// Render formats the result in the layout of the paper's Table 1.
func (r *Table1Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scale   Accuracy(Img)  Accuracy(HOG)   TP(Img)  TP(HOG)   TN(Img)  TN(HOG)\n")
	fmt.Fprintf(&sb, "1.0     %12.4f%%  %12.4f%%  %8d %8d  %8d %8d\n",
		100*r.BaseAcc, 100*r.BaseAcc, r.BaseTP, r.BaseTP, r.BaseTN, r.BaseTN)
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%.1f     %12.4f%%  %12.4f%%  %8d %8d  %8d %8d\n",
			row.Scale, 100*row.ImageAcc, 100*row.HOGAcc,
			row.ImageTP, row.HOGTP, row.ImageTN, row.HOGTN)
	}
	return sb.String()
}

// CrossoverScale returns the lowest evaluated scale at which the proposed
// method stops beating the conventional one (the paper reports ~1.5), or 0
// if it wins everywhere.
func (r *Table1Result) CrossoverScale() float64 {
	rows := append([]Table1Row(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Scale < rows[j].Scale })
	for _, row := range rows {
		if row.HOGAcc < row.ImageAcc {
			return row.Scale
		}
	}
	return 0
}

// ROCPair is the Figure 4 artifact at one scale: ROC curves with AUC and
// EER for both methods.
type ROCPair struct {
	Scale            float64
	Image, HOG       *eval.ROC
	ImageAUC, HOGAUC float64
	ImageEER, HOGEER float64
}

// Figure4 reproduces the paper's Figure 4: ROC curves for the original
// scale and the requested magnified scales under both methods. At scale
// 1.0 both methods coincide, so the pair holds identical curves.
func Figure4(o Options, scales []float64) ([]ROCPair, error) {
	tr, err := setup(o)
	if err != nil {
		return nil, err
	}
	return figure4With(tr, o, scales)
}

func figure4With(tr *trained, o Options, scales []float64) ([]ROCPair, error) {
	model := tr.det.Model()
	cfg := tr.det.Config()
	var out []ROCPair
	for _, scale := range scales {
		set, err := tr.testSet(o, scale)
		if err != nil {
			return nil, err
		}
		imgScores, err := scoreSet(set, o.Parallelism, func(img *imgproc.Gray) (float64, error) {
			return core.ClassifyImageScaled(model, img, cfg)
		})
		if err != nil {
			return nil, err
		}
		var hogScores []float64
		if scale == 1.0 {
			hogScores = imgScores
		} else {
			hogScores, err = scoreSet(set, o.Parallelism, func(img *imgproc.Gray) (float64, error) {
				return core.ClassifyFeatureScaled(model, img, cfg)
			})
			if err != nil {
				return nil, err
			}
		}
		ir, err := eval.ComputeROC(imgScores, set.Labels)
		if err != nil {
			return nil, err
		}
		hr, err := eval.ComputeROC(hogScores, set.Labels)
		if err != nil {
			return nil, err
		}
		out = append(out, ROCPair{
			Scale:    scale,
			Image:    ir,
			HOG:      hr,
			ImageAUC: ir.AUC(),
			HOGAUC:   hr.AUC(),
			ImageEER: ir.EER(),
			HOGEER:   hr.EER(),
		})
	}
	return out, nil
}

// RenderROC formats the Figure 4 summary statistics.
func RenderROC(pairs []ROCPair) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scale   AUC(Img)  AUC(HOG)  EER(Img)  EER(HOG)\n")
	for _, p := range pairs {
		fmt.Fprintf(&sb, "%.1f     %8.4f  %8.4f  %8.4f  %8.4f\n",
			p.Scale, p.ImageAUC, p.HOGAUC, p.ImageEER, p.HOGEER)
	}
	return sb.String()
}

// Study bundles Table 1 and Figure 4 over one shared trained model — the
// complete Section 4 analysis in one pass (the form cmd/pdeval runs).
type Study struct {
	Table1 *Table1Result
	ROC    []ROCPair
}

// RunStudy trains once and produces both artifacts.
func RunStudy(o Options, rocScales []float64) (*Study, error) {
	tr, err := setup(o)
	if err != nil {
		return nil, err
	}
	t1, err := table1With(tr, o)
	if err != nil {
		return nil, err
	}
	roc, err := figure4With(tr, o, rocScales)
	if err != nil {
		return nil, err
	}
	return &Study{Table1: t1, ROC: roc}, nil
}

// QuantizedAccuracy measures the accuracy cost of quantizing the model to
// the hardware weight format at native scale (supports the Table 2 /
// datapath-width discussion).
func QuantizedAccuracy(o Options, fmtBits func(m *svm.Model) (*svm.Model, error)) (float64, float64, error) {
	tr, err := setup(o)
	if err != nil {
		return 0, 0, err
	}
	base, err := tr.gen.RenderAt(tr.specs, 1.0)
	if err != nil {
		return 0, 0, err
	}
	x, err := core.ExtractDescriptors(base, tr.det.Config())
	if err != nil {
		return 0, 0, err
	}
	full := svm.Accuracy(tr.det.Model(), x, base.Labels)
	qm, err := fmtBits(tr.det.Model())
	if err != nil {
		return 0, 0, err
	}
	quant := svm.Accuracy(qm, x, base.Labels)
	return full, quant, nil
}
