package sim

import (
	"math/rand"
	"sort"
)

// This file holds the chaos-scenario injectors: deterministic,
// rng-stream-compatible schedule generators for correlated node
// failures (rack bursts), flapping nodes, and windowed event loss.
// Like FailureStorm they only *plan* adversity — the experiments
// harness wires the plans into the control loop (drain rules, NodeDown
// / NodeUp notifications, a lossy event feed), so the injectors stay
// free of any dependency on the loop. Every generator draws from the
// rng it is handed in a documented order and draws nothing when asked
// for nothing, so adding a scenario to a seeded study never shifts the
// streams of the published workload generators.

// Burst is one correlated failure: every node of one rack — a fence
// scope, the natural correlation domain of a shared switch or PDU —
// goes down together at At and, when RecoverAt is non-zero, returns
// at RecoverAt.
type Burst struct {
	// At is when the rack fails; RecoverAt when it returns (0 = the
	// outage outlives the scenario).
	At, RecoverAt float64
	// Nodes are the members of the failed rack.
	Nodes []string
}

// BurstOptions parameterizes PlanBursts.
type BurstOptions struct {
	// Count is how many bursts to draw; 0 plans nothing (and consumes
	// no rng).
	Count int
	// From and Until delimit the window the failure instants are drawn
	// from, uniformly. Until <= From pins every burst to From.
	From, Until float64
	// Outage is how long each failed rack stays down; 0 means the
	// outage never ends within the scenario.
	Outage float64
}

// PlanBursts draws Count correlated rack failures: for each burst one
// rack uniformly among racks, then one failure instant uniformly in
// [From, Until). Two draws per burst, in that order, so a seeded
// schedule is reproducible from the options alone; the returned
// bursts are sorted by failure time. A nil/empty rack list or a
// non-positive count plans nothing and leaves rng untouched.
func PlanBursts(rng *rand.Rand, racks [][]string, o BurstOptions) []Burst {
	if o.Count <= 0 || len(racks) == 0 {
		return nil
	}
	width := o.Until - o.From
	if width < 0 {
		width = 0
	}
	out := make([]Burst, 0, o.Count)
	for i := 0; i < o.Count; i++ {
		rack := racks[rng.Intn(len(racks))]
		at := o.From + rng.Float64()*width
		b := Burst{At: at, Nodes: append([]string(nil), rack...)}
		if o.Outage > 0 {
			b.RecoverAt = at + o.Outage
		}
		out = append(out, b)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// FlapTransition is one edge of a flapping node's health signal.
type FlapTransition struct {
	// At is the transition instant.
	At float64
	// Node is the flapping node.
	Node string
	// Down reports the direction: true = the node just failed, false =
	// it just recovered.
	Down bool
}

// FlapOptions parameterizes PlanFlaps.
type FlapOptions struct {
	// Nodes are the flappers. Empty plans nothing (and consumes no
	// rng).
	Nodes []string
	// From and Until delimit the flap window.
	From, Until float64
	// MeanDown and MeanUp are the mean lengths of the down and up
	// intervals (exponentially distributed).
	MeanDown, MeanUp float64
}

// PlanFlaps draws, for each node in list order, an alternating
// down/up schedule inside [From, Until): the node stays healthy for
// an Exp(MeanUp) interval, fails for an Exp(MeanDown) interval, and
// so on until the window closes. A node left down at Until gets a
// final recovery edge there, so every plan ends with the cluster
// whole and the scenario can converge. Transitions are returned
// sorted by (time, node); rng is consumed per node in list order, so
// reordering the node list is the only way to change a seeded
// schedule.
func PlanFlaps(rng *rand.Rand, o FlapOptions) []FlapTransition {
	if len(o.Nodes) == 0 || o.Until <= o.From {
		return nil
	}
	var out []FlapTransition
	for _, n := range o.Nodes {
		t := o.From + rng.ExpFloat64()*o.MeanUp
		down := true
		for t < o.Until {
			out = append(out, FlapTransition{At: t, Node: n, Down: down})
			if down {
				t += rng.ExpFloat64() * o.MeanDown
			} else {
				t += rng.ExpFloat64() * o.MeanUp
			}
			down = !down
		}
		// down flags the direction of the *next* edge: when the next
		// edge would have been a recovery, the node is down right now
		// and the window must close it.
		if !down {
			out = append(out, FlapTransition{At: o.Until, Node: n, Down: false})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// lossFraction is the drop probability inside an EventLoss window:
// the chaos study's event-loss cell loses half of the events.
const lossFraction = 0.5

// EventLoss is a windowed monitoring-event drop schedule: inside
// [From, Until) each offered event is silently discarded with
// probability lossFraction — the partition-style staleness scenario
// where the cluster keeps changing but the control loop's event feed
// goes quiet. Until <= From makes the loss permanent (the degenerate
// flat-loss schedule, like FailureStorm's flat rate).
type EventLoss struct {
	// From and Until delimit the loss window.
	From, Until float64
}

// Rate is the drop probability in force at virtual time now.
func (l EventLoss) Rate(now float64) float64 {
	if l.Until > l.From && (now < l.From || now >= l.Until) {
		return 0
	}
	return lossFraction
}

// Dropper returns the drop filter: one rng variate per offered event,
// whatever the rate in force — the same stream shape as a flat-rate
// filter, so seeded scenarios stay comparable when a window is added
// or removed. Outside the window it never drops while still consuming
// the identical stream.
func (l EventLoss) Dropper(rng *rand.Rand) func(now float64) bool {
	return func(now float64) bool {
		return rng.Float64() < l.Rate(now)
	}
}
