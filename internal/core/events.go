package core

import (
	"fmt"

	"cwcs/internal/plan"
)

// EventKind classifies what changed in the cluster.
type EventKind int

const (
	// VMArrival: new VMs entered the queue (a vjob was submitted).
	VMArrival EventKind = iota
	// VMDeparture: VMs left the system (a vjob terminated).
	VMDeparture
	// LoadChange: a VM's observed demand shifted (phase advance,
	// workload completion).
	LoadChange
	// NodeDown: a node became unavailable.
	NodeDown
	// NodeUp: a node (re)joined the cluster.
	NodeUp
	// ActionFailure: an action of the executing plan failed to apply.
	ActionFailure
)

// String names the kind for logs and telemetry.
func (k EventKind) String() string {
	switch k {
	case VMArrival:
		return "vm-arrival"
	case VMDeparture:
		return "vm-departure"
	case LoadChange:
		return "load-change"
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	case ActionFailure:
		return "action-failure"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// ParseEventKind maps the String name of a kind back to the kind: the
// wire format of the control plane's POST /v1/events.
func ParseEventKind(s string) (EventKind, error) {
	for _, k := range []EventKind{VMArrival, VMDeparture, LoadChange, NodeDown, NodeUp, ActionFailure} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown event kind %q", s)
}

// Event is one cluster change fed into the event-driven loop
// (Loop.Notify): the kind, when it happened, and which nodes and VMs
// it touches. The touched elements seed the loop's dirty-set; the
// slices of the cluster containing them are the only ones re-solved.
type Event struct {
	Kind  EventKind
	At    float64
	Nodes []string
	VMs   []string
}

// FailureEvent describes a failed action as an event: the manipulated
// VM and every node the action read or wrote resources on go dirty.
func FailureEvent(at float64, a plan.Action) Event {
	return Event{Kind: ActionFailure, At: at, Nodes: plan.AppendTouchedNodes(nil, a), VMs: []string{a.VM().Name}}
}

// dirtySet accumulates the nodes and VMs touched by events since the
// last incremental round, and whether a pass is owed even with no
// element dirty (a repair that fell back, a re-solve that failed).
// Events landing in the same partition slice coalesce naturally: the
// set only records elements, and slice selection walks it once per
// wake-up.
type dirtySet struct {
	nodes map[string]bool
	vms   map[string]bool
	owed  bool
	// spareNodes and spareVMs are the pair the last take handed out:
	// the next take clears them and swaps them in, so the set keeps
	// its maps' storage from wake to wake.
	spareNodes, spareVMs map[string]bool
}

func (d *dirtySet) add(ev Event) {
	if d.nodes == nil {
		d.nodes = make(map[string]bool)
		d.vms = make(map[string]bool)
	}
	for _, n := range ev.Nodes {
		d.nodes[n] = true
	}
	for _, v := range ev.VMs {
		d.vms[v] = true
	}
}

// put merges sets back in (a switch's own region, a repair's taken
// region), owing a pass when owed is set.
func (d *dirtySet) put(nodes, vms map[string]bool, owed bool) {
	if d.nodes == nil {
		d.nodes = make(map[string]bool)
		d.vms = make(map[string]bool)
	}
	for n := range nodes {
		d.nodes[n] = true
	}
	for v := range vms {
		d.vms[v] = true
	}
	d.owed = d.owed || owed
}

// empty reports whether nothing is dirty and no pass is owed.
func (d *dirtySet) empty() bool { return len(d.nodes) == 0 && len(d.vms) == 0 && !d.owed }

// take returns the accumulated sets and whether a pass was owed, and
// resets the dirty-set onto the cleared pair the previous take
// returned. The returned maps stay valid until the next take; put
// merges them back.
func (d *dirtySet) take() (nodes, vms map[string]bool, owed bool) {
	if d.nodes == nil {
		d.nodes, d.vms = make(map[string]bool), make(map[string]bool)
	}
	if d.spareNodes == nil {
		d.spareNodes, d.spareVMs = make(map[string]bool), make(map[string]bool)
	} else {
		clear(d.spareNodes)
		clear(d.spareVMs)
	}
	nodes, vms, owed = d.nodes, d.vms, d.owed
	d.nodes, d.vms, d.owed = d.spareNodes, d.spareVMs, false
	d.spareNodes, d.spareVMs = nodes, vms
	return nodes, vms, owed
}

// Execution is a handle on an in-flight plan execution
// (drivers.Execution implements it).
type Execution interface {
	// Remaining returns the pools that have not started, rooted at the
	// live configuration.
	Remaining() *plan.Plan
	// Splice replaces the pools that have not started with those of
	// the given plan (a plan.Repair output).
	Splice(*plan.Plan) error
	// Plan returns the plan as currently scheduled: the executed
	// prefix plus the (possibly spliced) remainder.
	Plan() *plan.Plan
	// Finished reports whether the last pool completed.
	Finished() bool
}
