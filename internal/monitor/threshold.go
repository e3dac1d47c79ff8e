package monitor

import (
	"sort"

	"cwcs/internal/core"
	"cwcs/internal/resources"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// ThresholdWatcher turns periodic utilization samples into debounced
// cluster events, the monitoring half of the control plane: sustained
// per-node overload on ANY resource dimension becomes a LoadChange
// event the event-driven loop reacts to, and nodes leaving or joining
// the configuration become NodeDown / NodeUp events. It is the bridge
// between raw monitoring (Observe) and Loop.Notify — the same
// ingestion path the control plane's POST /v1/events feeds.
//
// Overload detection uses hysteresis so a node oscillating around the
// watermark does not storm the loop: a dimension must stay strictly
// above 90 % utilization for three consecutive samples, one every
// 10 virtual seconds, before one event fires, and no further event
// fires for that dimension until its utilization has dropped below
// 70 % again.
type ThresholdWatcher struct {
	// Emit receives the events (required for Attach; Sample returns
	// them too).
	Emit func(core.Event)

	hot        map[nodeKind]int   // consecutive hot samples per node and dimension
	overloaded map[nodeKind]bool  // fired and not yet cooled below thresholdLow
	known      map[string]bool    // node set of the previous sample
	primed     bool               // first sample taken (baseline set)
	usage      []resources.Vector // per node of the sample being taken
}

// The watcher's settings, as utilization fractions (demand/capacity,
// per dimension) and sample counts.
const (
	thresholdHigh    = 0.9 // strictly above is hot
	thresholdLow     = 0.7 // an overloaded dimension re-arms below it
	thresholdSustain = 3   // consecutive hot samples before the event
)

// sampleInterval is the sampling period of the watcher and the
// Recorder, in virtual seconds: the paper's monitoring refresh.
const sampleInterval = 10

// nodeKind keys the hysteresis state: one overload state machine per
// node and resource dimension.
type nodeKind struct {
	node string
	kind resources.Kind
}

// utilization returns a node's demand/capacity fraction on one
// dimension, given its used resources. Zero-capacity resources count
// as saturated only when demanded.
func utilization(n *vjob.Node, used resources.Vector, k resources.Kind) float64 {
	cap := n.Capacity.Get(k)
	u := used.Get(k)
	if cap <= 0 {
		if u > 0 {
			return 2 // over any watermark
		}
		return 0
	}
	return float64(u) / float64(cap)
}

// Sample feeds one observation of the configuration at virtual time t
// and returns the events it triggers, in deterministic (node-name)
// order. The first sample only takes the baseline: nodes present at
// attach time emit nothing.
func (w *ThresholdWatcher) Sample(t float64, cfg *vjob.Configuration) []core.Event {
	if w.hot == nil {
		w.hot = make(map[nodeKind]int)
		w.overloaded = make(map[nodeKind]bool)
		w.known = make(map[string]bool)
	}
	var events []core.Event
	current := make(map[string]bool, cfg.NumNodes())

	w.usage = cfg.AppendUsage(w.usage[:0])
	for i, n := range cfg.Nodes() {
		current[n.Name] = true
		if w.primed && !w.known[n.Name] {
			events = append(events, core.Event{Kind: core.NodeUp, At: t, Nodes: []string{n.Name}})
		}
		// Each dimension runs its own hysteresis state machine; the
		// node fires at most one LoadChange per sample however many
		// dimensions tripped together.
		fired := false
		used := w.usage[i]
		for _, k := range resources.Kinds() {
			key := nodeKind{node: n.Name, kind: k}
			u := utilization(n, used, k)
			if u > thresholdHigh {
				w.hot[key]++
			} else {
				w.hot[key] = 0
			}
			if w.overloaded[key] {
				if u < thresholdLow {
					delete(w.overloaded, key) // cooled: re-arm
				}
				continue
			}
			if w.hot[key] >= thresholdSustain {
				w.overloaded[key] = true
				fired = true
			}
		}
		if fired {
			ev := core.Event{Kind: core.LoadChange, At: t, Nodes: []string{n.Name}}
			for _, v := range cfg.RunningOn(n.Name) {
				ev.VMs = append(ev.VMs, v.Name)
			}
			events = append(events, ev)
		}
	}

	// Known nodes that vanished from the configuration went offline.
	var downs []string
	for name := range w.known {
		if !current[name] {
			downs = append(downs, name)
		}
	}
	sort.Strings(downs)
	for _, name := range downs {
		events = append(events, core.Event{Kind: core.NodeDown, At: t, Nodes: []string{name}})
		for _, k := range resources.Kinds() {
			delete(w.hot, nodeKind{node: name, kind: k})
			delete(w.overloaded, nodeKind{node: name, kind: k})
		}
	}

	w.known = current
	w.primed = true
	return events
}

// Attach starts periodic sampling on the cluster for the rest of the
// run, pushing every triggered event through Emit.
func (w *ThresholdWatcher) Attach(c *sim.Cluster) {
	var tick func()
	tick = func() {
		for _, ev := range w.Sample(c.Now(), c.Config()) {
			if w.Emit != nil {
				w.Emit(ev)
			}
		}
		c.Schedule(c.Now()+sampleInterval, tick)
	}
	tick()
}
