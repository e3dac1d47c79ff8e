package plan

import (
	"fmt"
	"slices"

	"cwcs/internal/vjob"
)

// Graph is a reconfiguration graph (§4.1): an oriented multigraph whose
// vertices are the cluster nodes and whose edges are the actions
// required to transform the source configuration into the destination
// configuration. Each edge carries the action's resource demand and
// release, which the plan builder uses to order the actions.
type Graph struct {
	// Src is the current configuration.
	Src *vjob.Configuration
	// Dst is the configuration the decision module computed.
	Dst *vjob.Configuration
	// Actions are the edges, in deterministic (VM name) order.
	Actions []Action
}

// BuildGraph diffs two configurations and returns the reconfiguration
// graph listing every action needed. It returns an error when the
// destination asks for a transition the vjob life cycle forbids (e.g.
// Running back to Waiting) or references an unknown node. It is
// Workspace.Plan's diff, run on a fresh workspace.
func BuildGraph(src, dst *vjob.Configuration) (*Graph, error) {
	return new(Workspace).graph(src, dst, new(actionStore))
}

// graph diffs src and dst into w's graph, cutting the actions from s.
func (w *Workspace) graph(src, dst *vjob.Configuration, s *actionStore) (*Graph, error) {
	g := &w.g
	// A source VM has one action at most.
	g.Src, g.Dst, g.Actions = src, dst, slices.Grow(g.Actions[:0], src.NumVMs())
	w.vms = src.AppendVMs(slices.Grow(w.vms[:0], src.NumVMs()))
	for _, v := range w.vms {
		from := src.StateOf(v.Name)
		to := dst.StateOf(v.Name)
		if !vjob.ValidTransition(from, to) {
			return nil, fmt.Errorf("plan: VM %s: invalid transition %v -> %v", v.Name, from, to)
		}
		switch {
		case from == vjob.Running && to == vjob.Running:
			if src.HostOf(v.Name) != dst.HostOf(v.Name) {
				g.Actions = append(g.Actions, add(&s.migrations, Migration{Machine: v, Src: src.HostOf(v.Name), Dst: dst.HostOf(v.Name)}))
			}
		case from == vjob.Sleeping && to == vjob.Sleeping:
			if src.ImageHostOf(v.Name) != dst.ImageHostOf(v.Name) {
				return nil, fmt.Errorf("plan: VM %s: relocating a suspended image (%s -> %s) is not a context-switch action",
					v.Name, src.ImageHostOf(v.Name), dst.ImageHostOf(v.Name))
			}
		case from == vjob.Running && to == vjob.Sleeping:
			g.Actions = append(g.Actions, add(&s.suspends, Suspend{Machine: v, On: src.HostOf(v.Name), To: dst.ImageHostOf(v.Name)}))
		case from == vjob.Running && to == vjob.Terminated:
			g.Actions = append(g.Actions, add(&s.stops, Stop{Machine: v, On: src.HostOf(v.Name)}))
		case from == vjob.Sleeping && to == vjob.Running:
			g.Actions = append(g.Actions, add(&s.resumes, Resume{Machine: v, From: src.ImageHostOf(v.Name), On: dst.HostOf(v.Name)}))
		case from == vjob.Waiting && to == vjob.Running:
			g.Actions = append(g.Actions, add(&s.runs, Run{Machine: v, On: dst.HostOf(v.Name)}))
		}
	}
	// VMs that appear only in the destination are booted from Waiting.
	w.vms = dst.AppendVMs(slices.Grow(w.vms[:0], dst.NumVMs()))
	for _, v := range w.vms {
		if src.VM(v.Name) != nil {
			continue
		}
		if dst.StateOf(v.Name) == vjob.Running {
			g.Actions = append(g.Actions, add(&s.runs, Run{Machine: v, On: dst.HostOf(v.Name)}))
		}
	}
	for _, a := range g.Actions {
		if err := checkNodes(dst, src, a); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func checkNodes(dst, src *vjob.Configuration, a Action) error {
	var buf [2]string
	for _, n := range AppendTouchedNodes(buf[:0], a) {
		if n == "" || (dst.Node(n) == nil && src.Node(n) == nil) {
			return fmt.Errorf("plan: action %s references unknown node %q", a, n)
		}
	}
	return nil
}

// String lists the edges of the graph.
func (g *Graph) String() string {
	s := ""
	for _, a := range g.Actions {
		s += a.String() + "\n"
	}
	return s
}
