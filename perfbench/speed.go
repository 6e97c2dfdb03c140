package main

import "time"

// A shared host moves its cores' clock with its neighbours' load: over a
// few minutes the same frame's wall time can change by a quarter, and so
// does any fixed arithmetic loop, in step with it. The benchmark therefore
// times a fixed calibration chain at quiet points of each run and reports
// every duration it measures from the program in reference-core time: the
// wall time a core that runs one calibration step per refNsPerStep
// nanoseconds would have taken. The measured speed is printed in the
// stamp line, so wall times can be recovered.
const (
	// calibSteps is one calibration burst, about a millisecond.
	calibSteps = 1 << 20
	// refNsPerStep is the speed of the reference core.
	refNsPerStep = 1.0
)

// speedometer collects the calibration bursts of one run.
type speedometer struct {
	ns []float64 // ns per step of each burst
}

func newSpeedometer() *speedometer {
	// Room for every burst of a run, so sampling does not allocate in a
	// traced phase's allocation count.
	return &speedometer{ns: make([]float64, 0, 1<<12)}
}

// sample times n bursts of the calibration chain.
func (s *speedometer) sample(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		x := calibChain(calibSteps, uint64(len(s.ns)))
		d := time.Since(t0)
		calibSink ^= x
		s.ns = append(s.ns, float64(d)/calibSteps)
	}
}

// calibSink keeps the chain's result alive.
var calibSink uint64

// calibChain is a dependent multiply-add chain: its speed is the core's
// clock, not the memory system's or another core's.
//
//go:noinline
func calibChain(n int, x uint64) uint64 {
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// nsPerStep is the median speed over the run's bursts.
func (s *speedometer) nsPerStep() float64 { return quantile(s.ns, 0.5) }

// scale turns this run's wall durations into reference-core durations.
func (s *speedometer) scale() float64 { return refNsPerStep / s.nsPerStep() }

// scaleDurations multiplies every value whose unit is a duration by k.
func scaleDurations(defs []metricDef, values map[string]float64, k float64) {
	for _, d := range defs {
		switch d.Unit {
		case "s", "ms", "us":
			values[d.Name] *= k
		}
	}
}
