// Command pddetect runs the multi-scale pedestrian detector on a PGM frame
// using either the conventional image pyramid or the paper's HOG feature
// pyramid, printing detections and optionally writing an annotated PPM.
//
// Usage:
//
//	pddetect -model pedestrian.model -in frame.pgm -mode feature -annotate out.ppm
//
// With -stream N the frame is instead fed N times through the deadline-aware
// streaming runtime (internal/rt) at the -fps frame rate, exercising the
// degradation ladder and printing the runtime's Stats snapshot.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/roi"
	"repro/internal/rt"
	"repro/internal/svm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pddetect: ")
	var (
		modelPath  = flag.String("model", "pedestrian.model", "trained model file")
		in         = flag.String("in", "", "input PGM frame")
		mode       = flag.String("mode", "feature", "pyramid mode: image, feature, chained, fixed, octave")
		lambda     = flag.Float64("lambda", 0, "power-law channel correction of resampled feature levels (octave mode: ~0.11 for HOG)")
		step       = flag.Float64("step", 1.1, "pyramid scale step")
		maxScales  = flag.Int("scales", 0, "max pyramid levels (0 = all that fit)")
		threshold  = flag.Float64("threshold", 0, "SVM decision threshold")
		nms        = flag.Float64("nms", 0.3, "NMS IoU (<= 0 disables)")
		workers    = flag.Int("workers", 0, "scan worker goroutines (0 = GOMAXPROCS, 1 = serial)")
		cascadeCal = flag.Bool("cascade-calibrated", false, "staged scoring with calibrated per-stage floors (needs a model trained with pdtrain -cascade-calibrate)")
		annotate   = flag.String("annotate", "", "write an annotated PPM here")
		stream     = flag.Int("stream", 0, "feed the frame N times through the streaming runtime")
		fps        = flag.Float64("fps", 60, "frame rate for -stream (sets the per-frame deadline)")
		hang       = flag.Duration("hang-timeout", 0, "liveness watchdog for -stream: abandon a scan stuck this long and wedge the pipeline (0 derives 4x the frame deadline, negative disables)")
		roiOn      = flag.Bool("roi", false, "add a track-guided ROI rung to the -stream degradation ladder (restricted scans around live tracks when overloaded)")
		roiEvery   = flag.Int("roi-full-every", roi.DefaultFullEvery, "ROI rung dense-scan cadence: a full scan every K frames bounds new-entrant latency to K-1 frames")
		roiMargin  = flag.Int("roi-margin", roi.DefaultMarginPx, "ROI rung dilation in pixels around each tracked box")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		log.Fatal("missing -in frame")
	}
	model, err := svm.Load(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	frame, err := imgproc.ReadPGMFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ScaleStep = *step
	cfg.MaxScales = *maxScales
	cfg.Threshold = *threshold
	cfg.NMSOverlap = *nms
	cfg.Workers = *workers
	cfg.Scale.Lambda = *lambda
	if *cascadeCal {
		cfg.Cascade = core.CascadeCalibrated
	}
	if cfg.Mode, err = core.ParsePyramidMode(*mode); err != nil {
		log.Fatal(err)
	}
	det, err := core.NewDetector(model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *stream > 0 {
		var roiCfg *roi.Config
		if *roiOn {
			roiCfg = &roi.Config{FullEvery: *roiEvery, MarginPx: *roiMargin}
		}
		runStream(det, frame, *stream, *fps, *hang, roiCfg)
		return
	}
	dets, err := det.Detect(frame)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s %dx%d: %d detections (%s pyramid, step %.2f)",
		*in, frame.W, frame.H, len(dets), *mode, *step)
	for _, d := range dets {
		fmt.Printf("%d %d %d %d %.4f\n", d.Box.Min.X, d.Box.Min.Y, d.Box.W(), d.Box.H(), d.Score)
	}
	if *annotate != "" {
		rgb := imgproc.FromGray(frame)
		for _, d := range dets {
			rgb.DrawRect(d.Box, 255, 40, 40, 2)
		}
		if err := imgproc.WritePPMFile(*annotate, rgb); err != nil {
			log.Fatal(err)
		}
		log.Printf("annotated frame written to %s", *annotate)
	}
}

// runStream replays the frame n times through the streaming runtime at the
// given frame rate and reports the per-frame outcomes plus the final Stats
// snapshot — the software rendition of the paper's 60 fps budget analysis.
func runStream(det *core.Detector, frame *imgproc.Gray, n int, fps float64, hang time.Duration, roiCfg *roi.Config) {
	m := obs.NewMetrics()
	p, err := rt.New(det, rt.Config{FPS: fps, HangTimeout: hang, ROI: roiCfg, Metrics: m})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	interval := time.Duration(float64(time.Second) / fps)
	watchdog := "disabled"
	if h := p.HangTimeout(); h > 0 {
		watchdog = h.String()
	}
	log.Printf("streaming %d frames at %.1f fps (deadline %s, watchdog %s, ladder %v)",
		n, fps, p.Deadline().Round(time.Microsecond), watchdog, p.Ladder())

	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range p.Results() {
			status := "ok"
			switch {
			case r.Err != nil:
				status = "error: " + r.Err.Error()
			case r.Missed:
				status = "missed deadline"
			}
			if r.ROI {
				status += " (roi)"
			}
			log.Printf("frame %3d: rung %d, %3d detections, latency %8s  %s",
				r.Seq, r.Rung, len(r.Detections), r.Latency.Round(time.Microsecond), status)
		}
	}()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := 0; i < n; i++ {
		if !p.Submit(frame) {
			if p.Wedged() {
				log.Printf("pipeline wedged at frame %d: a scan hung past the watchdog; stopping the stream", i)
				break
			}
			log.Printf("frame %d rejected", i)
		}
		if i < n-1 {
			<-tick.C
		}
	}
	p.Flush()
	log.Printf("stats: %s", p.Stats())
	p.Close()
	<-done
	log.Printf("stage latencies:\n%s", m.Summary())
}
