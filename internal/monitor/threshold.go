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
// watermark does not storm the loop: a dimension must stay above its
// High for Sustain consecutive samples before one event fires, and no
// further event fires for that dimension until its utilization has
// dropped below its Low again. Watermarks default to High/Low for
// every dimension; PerKind overrides them per resource kind (a
// network-bound cluster may want net to trip at 0.8 while memory
// keeps 0.9).
type ThresholdWatcher struct {
	// Interval is the sampling period in virtual seconds; 0 defaults
	// to 10 s (the paper's monitoring refresh).
	Interval float64
	// High is the default overload watermark as a utilization fraction
	// (demand/capacity, per dimension); 0 defaults to 0.9. Strictly
	// above High counts as hot.
	High float64
	// Low is the default re-arm watermark; an overloaded dimension
	// must drop below it before a new overload event can fire. 0
	// defaults to 0.7.
	Low float64
	// PerKind overrides the watermarks for individual resource
	// dimensions; kinds absent from the map use High/Low. A zero field
	// inside a Watermarks entry falls back to the corresponding
	// default too, so {High: 0.8} only moves the trip point.
	PerKind map[resources.Kind]Watermarks
	// Sustain is how many consecutive hot samples trigger the event; 0
	// defaults to 3.
	Sustain int
	// Emit receives the events (required for Attach; Sample returns
	// them too).
	Emit func(core.Event)

	hot        map[nodeKind]int  // consecutive hot samples per node and dimension
	overloaded map[nodeKind]bool // fired and not yet cooled below Low
	known      map[string]bool   // node set of the previous sample
	primed     bool              // first sample taken (baseline set)
	stopped    bool
}

// Watermarks is one dimension's High/Low pair for PerKind overrides.
type Watermarks struct {
	High, Low float64
}

// nodeKind keys the hysteresis state: one overload state machine per
// node and resource dimension.
type nodeKind struct {
	node string
	kind resources.Kind
}

func (w *ThresholdWatcher) interval() float64 {
	if w.Interval <= 0 {
		return 10
	}
	return w.Interval
}

func (w *ThresholdWatcher) high(k resources.Kind) float64 {
	if m, ok := w.PerKind[k]; ok && m.High > 0 {
		return m.High
	}
	if w.High <= 0 {
		return 0.9
	}
	return w.High
}

func (w *ThresholdWatcher) low(k resources.Kind) float64 {
	l := w.Low
	if m, ok := w.PerKind[k]; ok && m.Low > 0 {
		l = m.Low
	} else if l <= 0 {
		l = 0.7
	}
	// The re-arm threshold must sit at or below the trip threshold, or
	// a utilization between them would fire and re-arm on every sample
	// — the very storm the hysteresis exists to prevent. A PerKind
	// High override below the (defaulted) Low is clamped rather than
	// inverted.
	if h := w.high(k); l > h {
		l = h
	}
	return l
}

func (w *ThresholdWatcher) sustain() int {
	if w.Sustain <= 0 {
		return 3
	}
	return w.Sustain
}

// utilization returns the node's demand/capacity fraction on one
// dimension, from the free-resource map of one cfg.FreeResources pass
// per sample. Zero-capacity resources count as saturated only when demanded.
func utilization(free map[string]resources.Vector, n *vjob.Node, k resources.Kind) float64 {
	cap := n.Capacity.Get(k)
	used := cap - free[n.Name].Get(k)
	if cap <= 0 {
		if used > 0 {
			return 2 // over any watermark
		}
		return 0
	}
	return float64(used) / float64(cap)
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
	free := cfg.FreeResources()

	for _, n := range cfg.Nodes() {
		current[n.Name] = true
		if w.primed && !w.known[n.Name] {
			events = append(events, core.Event{Kind: core.NodeUp, At: t, Nodes: []string{n.Name}})
		}
		// Each dimension runs its own hysteresis state machine; the
		// node fires at most one LoadChange per sample however many
		// dimensions tripped together.
		fired := false
		for _, k := range resources.Kinds() {
			key := nodeKind{node: n.Name, kind: k}
			u := utilization(free, n, k)
			if u > w.high(k) {
				w.hot[key]++
			} else {
				w.hot[key] = 0
			}
			if w.overloaded[key] {
				if u < w.low(k) {
					delete(w.overloaded, key) // cooled: re-arm
				}
				continue
			}
			if w.hot[key] >= w.sustain() {
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

// Attach starts periodic sampling on the cluster, pushing every
// triggered event through Emit, until Stop is called.
func (w *ThresholdWatcher) Attach(c *sim.Cluster) {
	var tick func()
	tick = func() {
		if w.stopped {
			return
		}
		for _, ev := range w.Sample(c.Now(), c.Config()) {
			if w.Emit != nil {
				w.Emit(ev)
			}
		}
		c.Schedule(c.Now()+w.interval(), tick)
	}
	tick()
}

// Stop ends the sampling (the pending tick becomes a no-op).
func (w *ThresholdWatcher) Stop() { w.stopped = true }
