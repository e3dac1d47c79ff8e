package monitor

import (
	"math"
	"sort"

	"cwcs/internal/sim"
)

// RecoveryLog records violation episodes: a span of virtual time that
// opens when the cluster transitions from violation-free to violating
// (capacity or transfer violations, the signal Ledger.Total integrates)
// and closes when it returns to zero. The episode lengths are the
// recovery times chaos studies report as distributions — how long the
// loop needs to repair each injected disruption, not just how much
// total exposure accumulated.
type RecoveryLog struct {
	// Durations are the closed episodes' lengths, in order of closure.
	Durations []float64
	// Starts are the closed episodes' opening times, aligned with
	// Durations — the input the observability layer matches against
	// reconfiguration spans (obs.RemediationTimes).
	Starts []float64
	// Open reports whether an episode is still running (and since
	// when) — an unrecovered violation at the horizon.
	Open      bool
	OpenSince float64
}

// CloseAt force-closes a still-open episode at the horizon so its
// (censored) length enters the distribution; studies call it once
// after the run. A no-op when no episode is open.
func (l *RecoveryLog) CloseAt(now float64) {
	if !l.Open {
		return
	}
	l.Starts = append(l.Starts, l.OpenSince)
	l.Durations = append(l.Durations, now-l.OpenSince)
	l.Open = false
}

// Episodes returns the number of closed episodes.
func (l *RecoveryLog) Episodes() int { return len(l.Durations) }

// Quantile returns the q-quantile (0..1) of the episode lengths; see
// the package-level Quantile for the method.
func (l *RecoveryLog) Quantile(q float64) float64 {
	return Quantile(l.Durations, q)
}

// Quantile returns the q-quantile (0..1) of values using the
// nearest-rank method, so the reported p95 is a sample that actually
// happened. It returns 0 on an empty slice; q outside [0,1] is
// clamped. The input is not modified.
func Quantile(values []float64, q float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Max returns the longest episode, 0 when none closed.
func (l *RecoveryLog) Max() float64 {
	out := 0.0
	for _, d := range l.Durations {
		if d > out {
			out = d
		}
	}
	return out
}

// WatchRecovery attaches an episode detector to the cluster: at every
// simulation advance it samples the violation count and logs the 0 →
// >0 and >0 → 0 transitions as episode boundaries. It shares the
// advance cadence (and thus the timing resolution) of WatchLedger, so
// the two metrics describe the same signal
// — one as an integral, one as a distribution of repair times.
func WatchRecovery(c *sim.Cluster) *RecoveryLog {
	l := &RecoveryLog{}
	c.OnAdvance(func() {
		viol := len(c.Config().Violations()) + len(c.TransferViolations())
		switch {
		case viol > 0 && !l.Open:
			l.Open = true
			l.OpenSince = c.Now()
		case viol == 0 && l.Open:
			l.CloseAt(c.Now())
		}
	})
	return l
}
