package plan

import (
	"fmt"

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
// Running back to Waiting) or references an unknown node.
func BuildGraph(src, dst *vjob.Configuration) (*Graph, error) {
	g := &Graph{Src: src, Dst: dst}
	for _, v := range src.VMs() {
		from := src.StateOf(v.Name)
		to := dst.StateOf(v.Name)
		if !vjob.ValidTransition(from, to) {
			return nil, fmt.Errorf("plan: VM %s: invalid transition %v -> %v", v.Name, from, to)
		}
		switch {
		case from == vjob.Running && to == vjob.Running:
			if src.HostOf(v.Name) != dst.HostOf(v.Name) {
				g.Actions = append(g.Actions, &Migration{Machine: v, Src: src.HostOf(v.Name), Dst: dst.HostOf(v.Name)})
			}
		case from == vjob.Sleeping && to == vjob.Sleeping:
			if src.ImageHostOf(v.Name) != dst.ImageHostOf(v.Name) {
				return nil, fmt.Errorf("plan: VM %s: relocating a suspended image (%s -> %s) is not a context-switch action",
					v.Name, src.ImageHostOf(v.Name), dst.ImageHostOf(v.Name))
			}
		case from == vjob.Running && to == vjob.Sleeping:
			g.Actions = append(g.Actions, &Suspend{Machine: v, On: src.HostOf(v.Name), To: dst.ImageHostOf(v.Name)})
		case from == vjob.Running && to == vjob.Terminated:
			g.Actions = append(g.Actions, &Stop{Machine: v, On: src.HostOf(v.Name)})
		case from == vjob.Sleeping && to == vjob.Running:
			g.Actions = append(g.Actions, &Resume{Machine: v, From: src.ImageHostOf(v.Name), On: dst.HostOf(v.Name)})
		case from == vjob.Waiting && to == vjob.Running:
			g.Actions = append(g.Actions, &Run{Machine: v, On: dst.HostOf(v.Name)})
		}
	}
	// VMs that appear only in the destination are booted from Waiting.
	for _, v := range dst.VMs() {
		if src.VM(v.Name) != nil {
			continue
		}
		if dst.StateOf(v.Name) == vjob.Running {
			g.Actions = append(g.Actions, &Run{Machine: v, On: dst.HostOf(v.Name)})
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
