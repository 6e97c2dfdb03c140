package gateway

import (
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// HealthState is a replica's position in the ejection state machine.
type HealthState int

const (
	// Healthy: in rotation, taking traffic.
	Healthy HealthState = iota
	// Ejected: out of rotation, waiting out an ejection backoff before
	// it may be probed.
	Ejected
	// Probation: a probe succeeded after the backoff; the replica takes
	// traffic again but must string together ProbationSuccesses clean
	// results before it counts as readmitted — one failure re-ejects it
	// with a longer backoff.
	Probation
)

// String returns the state's label (used in stats and logs).
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Ejected:
		return "ejected"
	case Probation:
		return "probation"
	default:
		return "unknown"
	}
}

// healthMachine is one replica's passive-outlier + probation state
// machine. It is deliberately a plain struct with no locking and no
// clock of its own: the gateway drives it under its mutex and passes in
// the (possibly fake) current time, which is what makes the
// eject/probe/readmit sequence deterministically testable.
type healthMachine struct {
	cfg Config

	state HealthState
	// consecFails counts consecutive failed results while in rotation.
	consecFails int
	// window is a ring of recent results (true = failure) for the
	// error-rate trigger; windowPos/windowLen track fill.
	window    []bool
	windowPos int
	windowLen int
	// ejections counts consecutive ejection episodes without a full
	// readmission; it indexes the backoff ladder.
	ejections int
	// retryAt is when an Ejected replica may next be probed.
	retryAt time.Time
	// probationOK counts consecutive probation successes.
	probationOK int
}

func newHealthMachine(cfg Config) *healthMachine {
	return &healthMachine{cfg: cfg, window: make([]bool, cfg.EjectWindow)}
}

// recordResult feeds one in-rotation detection outcome (failed=true for a
// replica-attributable failure) at time now. It returns the transition
// that occurred: ejected (Healthy/Probation -> Ejected) or readmitted
// (Probation -> Healthy), or neither.
func (h *healthMachine) recordResult(now time.Time, failed bool) (ejected, readmitted bool) {
	switch h.state {
	case Ejected:
		// A stale result from an attempt that was in flight when the
		// replica got ejected; the ejection already accounted for it.
		return false, false
	case Probation:
		if failed {
			h.eject(now)
			return true, false
		}
		h.probationOK++
		if h.probationOK >= h.cfg.ProbationSuccesses {
			// Full readmission: the backoff ladder resets — the replica
			// has proven itself, so the next incident starts from the
			// bottom rung again.
			h.state = Healthy
			h.ejections = 0
			h.resetCounters()
			return false, true
		}
		return false, false
	}
	// Healthy.
	h.window[h.windowPos] = failed
	h.windowPos = (h.windowPos + 1) % len(h.window)
	if h.windowLen < len(h.window) {
		h.windowLen++
	}
	if !failed {
		h.consecFails = 0
		return false, false
	}
	h.consecFails++
	if h.consecFails >= h.cfg.EjectAfter {
		h.eject(now)
		return true, false
	}
	// The error-rate trigger only fires on a full window: judging a
	// replica on two samples would eject it for one unlucky frame.
	if h.windowLen == len(h.window) {
		fails := 0
		for _, f := range h.window {
			if f {
				fails++
			}
		}
		if float64(fails) >= h.cfg.EjectRate*float64(len(h.window)) {
			h.eject(now)
			return true, false
		}
	}
	return false, false
}

// eject moves the replica out of rotation and arms the next-probe time
// from the capped exponential ladder: episode n waits base * 2^(n-1)
// capped at max.
func (h *healthMachine) eject(now time.Time) {
	h.ejections++
	h.state = Ejected
	h.retryAt = now.Add(h.backoff())
	h.resetCounters()
}

// backoff is the current episode's ejection backoff.
func (h *healthMachine) backoff() time.Duration {
	return serve.BackoffDelay(h.ejections, h.cfg.EjectBackoff, h.cfg.EjectBackoffMax)
}

// resetCounters clears the in-rotation failure tracking (after any state
// transition; the next episode judges fresh evidence).
func (h *healthMachine) resetCounters() {
	h.consecFails = 0
	h.windowPos = 0
	h.windowLen = 0
	h.probationOK = 0
}

// probeDue reports whether an Ejected replica has served its backoff and
// should be probed.
func (h *healthMachine) probeDue(now time.Time) bool {
	return h.state == Ejected && !now.Before(h.retryAt)
}

// recordProbe feeds one active-probe outcome for an Ejected replica: a
// success moves it to Probation (back in rotation, on watch); a failure
// re-arms the same backoff rung without escalating — the replica never
// took traffic, so there is no new evidence of harm, just not-yet-ready.
func (h *healthMachine) recordProbe(now time.Time, ok bool) (probation bool) {
	if h.state != Ejected {
		return false
	}
	if !ok {
		h.retryAt = now.Add(h.backoff())
		return false
	}
	h.state = Probation
	h.probationOK = 0
	return true
}

// inRotation reports whether the replica may take traffic.
func (h *healthMachine) inRotation() bool { return h.state != Ejected }

// replica is one backend plus its health machine and metrics. All mutable
// state except the atomically updated metrics is guarded by the gateway's
// mutex.
type replica struct {
	name    string
	backend Backend
	health  *healthMachine

	// inFlight gauges attempts currently outstanding (the P2C load
	// signal).
	inFlight obs.Gauge
	// latency observes successful attempt latency; the gateway's hedge
	// delay derives from the merged view of these.
	latency obs.Histogram
	// successes/failures count attempt outcomes charged to this replica;
	// hedges counts hedge attempts landed on it; ejections/rejoins count
	// its state transitions; probes counts active probes sent.
	successes, failures, hedges, ejections, rejoins, probes obs.Counter
}

// ReplicaStats is the exported snapshot of one replica.
type ReplicaStats struct {
	Name      string  `json:"name"`
	State     string  `json:"state"`
	InFlight  int64   `json:"in_flight"`
	Successes uint64  `json:"successes"`
	Failures  uint64  `json:"failures"`
	Hedges    uint64  `json:"hedges"`
	Ejections uint64  `json:"ejections"`
	Rejoins   uint64  `json:"rejoins"`
	Probes    uint64  `json:"probes"`
	P50       float64 `json:"p50_seconds"`
	P99       float64 `json:"p99_seconds"`
}
