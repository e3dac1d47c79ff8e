package core

import (
	"fmt"
	"sort"

	"cwcs/internal/cp"
	"cwcs/internal/vjob"
)

// PlacementRule is an administrator-supplied low-level constraint on
// where VMs may run (the paper's §7: Entropy already supports such
// relations — e.g. hosting VMs on different nodes for high
// availability — and this engine maintains them while optimizing the
// cluster-wide context switch). Rules apply to the VMs that end up in
// the Running state; sleeping and waiting VMs hold no placement.
//
// A rule also tells the partitioner (see Partitioner) which VMs it
// covers and which nodes must travel with them, and restricts itself
// to one partition, so every problem can be split.
type PlacementRule interface {
	// Apply posts the rule on the solver. vars maps VM names (of the
	// VMs that will run) to their assignment variable; nodeIdx maps
	// node names to variable values. Unknown VM names are ignored: the
	// rule binds placement, not scheduling.
	Apply(s *cp.Solver, vars map[string]*cp.IntVar, nodeIdx map[string]int) error
	// Check validates a concrete configuration against the rule, for
	// plan validation and tests. Its verdict depends only on the hosts
	// of the scope VMs and on the bound nodes (what they host): the
	// carve keeps those together, so a wake judges a slice's rules on
	// the whole configuration without materializing the slice.
	Check(cfg *vjob.Configuration) error
	// ScopeVMs returns the VM names the rule covers. The partitioner
	// keeps them in a single partition.
	ScopeVMs() []string
	// BindNodes returns the nodes that must share a partition with the
	// covered VMs (e.g. a Fence's node group). Purely restrictive node
	// lists (a Ban's) return nil: a node absent from the partition
	// cannot host the VM anyway.
	BindNodes() []string
	// Rescope returns the rule restricted to a partition's VM and node
	// sets, or nil when the restriction makes the rule trivial. The two
	// sets are valid only during the call (the partitioner reuses them
	// for the next partition): a rule must not retain them.
	Rescope(vms, nodes map[string]bool) PlacementRule
}

// keepNames filters names to those present in the set, preserving
// order.
func keepNames(names []string, set map[string]bool) []string {
	var out []string
	for _, n := range names {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

// Spread keeps the named VMs on pairwise distinct nodes (the classic
// high-availability anti-affinity rule).
type Spread struct {
	// VMs are the VM names the rule covers.
	VMs []string
}

// ScopeVMs returns the covered VMs.
func (r Spread) ScopeVMs() []string { return r.VMs }

// BindNodes returns nil: spreading references no specific node.
func (r Spread) BindNodes() []string { return nil }

// Rescope keeps the covered VMs present in the partition; fewer than
// two leaves nothing to spread.
func (r Spread) Rescope(vms, nodes map[string]bool) PlacementRule {
	kept := keepNames(r.VMs, vms)
	if len(kept) < 2 {
		return nil
	}
	return Spread{VMs: kept}
}

// Apply posts an AllDifferent over the covered running VMs.
func (r Spread) Apply(s *cp.Solver, vars map[string]*cp.IntVar, nodeIdx map[string]int) error {
	var items []*cp.IntVar
	for _, name := range r.VMs {
		if v, ok := vars[name]; ok {
			items = append(items, v)
		}
	}
	if len(items) > 1 {
		s.Post(&cp.AllDifferent{Items: items})
	}
	return nil
}

// Check verifies pairwise distinct hosts among the running VMs.
func (r Spread) Check(cfg *vjob.Configuration) error {
	seen := map[string]string{}
	for _, name := range r.VMs {
		h := cfg.HostOf(name)
		if h == "" {
			continue
		}
		if prev, ok := seen[h]; ok {
			return fmt.Errorf("core: spread violated: %s and %s share node %s", prev, name, h)
		}
		seen[h] = name
	}
	return nil
}

// Ban keeps the named VMs off the given nodes (e.g. nodes entering
// maintenance).
type Ban struct {
	VMs   []string
	Nodes []string
}

// ScopeVMs returns the covered VMs.
func (r Ban) ScopeVMs() []string { return r.VMs }

// BindNodes returns nil: a ban is purely restrictive, so banned nodes
// outside the partition need no co-location.
func (r Ban) BindNodes() []string { return nil }

// Rescope intersects both lists with the partition; an empty side makes
// the ban trivial.
func (r Ban) Rescope(vms, nodes map[string]bool) PlacementRule {
	keptVMs := keepNames(r.VMs, vms)
	keptNodes := keepNames(r.Nodes, nodes)
	if len(keptVMs) == 0 || len(keptNodes) == 0 {
		return nil
	}
	return Ban{VMs: keptVMs, Nodes: keptNodes}
}

// Apply removes the banned nodes from the VMs' domains.
func (r Ban) Apply(s *cp.Solver, vars map[string]*cp.IntVar, nodeIdx map[string]int) error {
	for _, name := range r.VMs {
		v, ok := vars[name]
		if !ok {
			continue
		}
		for _, n := range r.Nodes {
			idx, ok := nodeIdx[n]
			if !ok {
				return fmt.Errorf("core: ban references unknown node %q", n)
			}
			if err := s.RemoveValue(v, idx); err != nil {
				return fmt.Errorf("core: ban leaves no host for %s: %w", name, err)
			}
		}
	}
	return nil
}

// Check verifies no covered running VM sits on a banned node.
func (r Ban) Check(cfg *vjob.Configuration) error {
	banned := map[string]bool{}
	for _, n := range r.Nodes {
		banned[n] = true
	}
	for _, name := range r.VMs {
		if h := cfg.HostOf(name); h != "" && banned[h] {
			return fmt.Errorf("core: ban violated: %s runs on %s", name, h)
		}
	}
	return nil
}

// Drained keeps every VM off the named nodes: the node-maintenance
// rule behind the control plane's drain workflow. Unlike Ban it covers
// the whole VM population, so draining a node both evacuates its
// current guests (the solver must find them a new host) and prevents
// any later solve from placing new work there. Nodes absent from the
// configuration (taken offline after evacuation) are skipped: the rule
// stays installed across the node's whole maintenance window.
//
// The rule governs running placement only. A suspended image on the
// drained node stays put — the optimizer has no image-migration
// action; only resuming (or terminating) its vjob moves it — so such
// a node reports evacuated=false on the control plane and refuses
// SetNodeOffline until the images leave. Image evacuation is a
// ROADMAP item.
type Drained struct {
	Nodes []string
}

// ScopeVMs returns nil: the rule covers every VM by being purely
// restrictive on nodes, so no VM subset needs co-location.
func (r Drained) ScopeVMs() []string { return nil }

// BindNodes returns the drained nodes, so the rule travels with them
// into whatever partition they land in.
func (r Drained) BindNodes() []string { return r.Nodes }

// Rescope intersects the drained nodes with the partition; a partition
// holding none of them needs no rule.
func (r Drained) Rescope(vms, nodes map[string]bool) PlacementRule {
	kept := keepNames(r.Nodes, nodes)
	if len(kept) == 0 {
		return nil
	}
	return Drained{Nodes: kept}
}

// Apply removes the drained nodes from every VM's domain.
func (r Drained) Apply(s *cp.Solver, vars map[string]*cp.IntVar, nodeIdx map[string]int) error {
	for _, n := range r.Nodes {
		idx, ok := nodeIdx[n]
		if !ok {
			continue // offline: not a candidate host anyway
		}
		for name, v := range vars {
			if !v.Contains(idx) {
				continue
			}
			if err := s.RemoveValue(v, idx); err != nil {
				return fmt.Errorf("core: drain of %s leaves no host for %s: %w", n, name, err)
			}
		}
	}
	return nil
}

// Check verifies no VM runs on a drained node.
func (r Drained) Check(cfg *vjob.Configuration) error {
	for _, n := range r.Nodes {
		if vms := cfg.RunningOn(n); len(vms) > 0 {
			return fmt.Errorf("core: drained node %s still hosts %s", n, vms[0].Name)
		}
	}
	return nil
}

// DrainSet is the bridge between operator node-lifecycle commands and
// the decision module's rule list: it tracks the nodes asked to
// evacuate and materializes one Drained rule per node, so each rule
// binds only its own node in the partitioner instead of welding every
// drained node into one slice. Install it on Loop.Drains; the control
// plane (internal/api) mutates it and emits the matching NodeDown /
// NodeUp events. Like the Loop itself it is not internally
// synchronized: callers serialize through the loop's executor.
type DrainSet struct {
	nodes map[string]bool
}

// Drain marks the node for evacuation. It reports whether the set
// changed (false when the node was already draining).
func (d *DrainSet) Drain(node string) bool {
	if d.nodes == nil {
		d.nodes = make(map[string]bool)
	}
	if d.nodes[node] {
		return false
	}
	d.nodes[node] = true
	return true
}

// Undrain lifts the evacuation order. It reports whether the set
// changed.
func (d *DrainSet) Undrain(node string) bool {
	if !d.nodes[node] {
		return false
	}
	delete(d.nodes, node)
	return true
}

// IsDrained reports whether the node is currently draining.
func (d *DrainSet) IsDrained(node string) bool { return d != nil && d.nodes[node] }

// Nodes returns the draining nodes in name order.
func (d *DrainSet) Nodes() []string {
	if d == nil || len(d.nodes) == 0 {
		return nil
	}
	out := make([]string, 0, len(d.nodes))
	for n := range d.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Rules materializes the drain orders as placement rules, one Drained
// rule per node.
func (d *DrainSet) Rules() []PlacementRule {
	nodes := d.Nodes()
	if len(nodes) == 0 {
		return nil
	}
	out := make([]PlacementRule, len(nodes))
	for i, n := range nodes {
		out[i] = Drained{Nodes: []string{n}}
	}
	return out
}

// Fence restricts the named VMs to the given node group (e.g. nodes
// holding a dataset or a licence).
type Fence struct {
	VMs   []string
	Nodes []string
}

// ScopeVMs returns the covered VMs.
func (r Fence) ScopeVMs() []string { return r.VMs }

// BindNodes returns the fence's node group: the covered VMs are only
// placeable there, so the group must ride in their partition.
func (r Fence) BindNodes() []string { return r.Nodes }

// Rescope keeps the covered VMs and intersects the node group with the
// partition. A fence whose whole group fell outside the partition is
// kept with an empty group (rather than silently dropped): applying it
// fails the partition, which sends the optimizer back to the monolithic
// model instead of violating the rule.
func (r Fence) Rescope(vms, nodes map[string]bool) PlacementRule {
	keptVMs := keepNames(r.VMs, vms)
	if len(keptVMs) == 0 {
		return nil
	}
	return Fence{VMs: keptVMs, Nodes: keepNames(r.Nodes, nodes)}
}

// Apply prunes every node outside the fence from the VMs' domains.
func (r Fence) Apply(s *cp.Solver, vars map[string]*cp.IntVar, nodeIdx map[string]int) error {
	inside := map[int]bool{}
	for _, n := range r.Nodes {
		idx, ok := nodeIdx[n]
		if !ok {
			return fmt.Errorf("core: fence references unknown node %q", n)
		}
		inside[idx] = true
	}
	for _, name := range r.VMs {
		v, ok := vars[name]
		if !ok {
			continue
		}
		for val := v.NextValue(0); val >= 0; val = v.NextValue(val + 1) {
			if !inside[val] {
				if err := s.RemoveValue(v, val); err != nil {
					return fmt.Errorf("core: fence leaves no host for %s: %w", name, err)
				}
			}
		}
	}
	return nil
}

// Check verifies every covered running VM sits inside the fence.
func (r Fence) Check(cfg *vjob.Configuration) error {
	inside := map[string]bool{}
	for _, n := range r.Nodes {
		inside[n] = true
	}
	for _, name := range r.VMs {
		if h := cfg.HostOf(name); h != "" && !inside[h] {
			return fmt.Errorf("core: fence violated: %s runs on %s", name, h)
		}
	}
	return nil
}

// Gather co-locates the named VMs on one node (latency-bound
// communication).
type Gather struct {
	VMs []string
}

// ScopeVMs returns the covered VMs.
func (r Gather) ScopeVMs() []string { return r.VMs }

// BindNodes returns nil: gathering references no specific node.
func (r Gather) BindNodes() []string { return nil }

// Rescope keeps the covered VMs present in the partition; fewer than
// two leaves nothing to gather (the partitioner co-locates the whole
// scope, so absent VMs do not exist in the configuration at all).
func (r Gather) Rescope(vms, nodes map[string]bool) PlacementRule {
	kept := keepNames(r.VMs, vms)
	if len(kept) < 2 {
		return nil
	}
	return Gather{VMs: kept}
}

// Apply chains equality between consecutive covered VMs through a
// dedicated propagator.
func (r Gather) Apply(s *cp.Solver, vars map[string]*cp.IntVar, nodeIdx map[string]int) error {
	var items []*cp.IntVar
	for _, name := range r.VMs {
		if v, ok := vars[name]; ok {
			items = append(items, v)
		}
	}
	if len(items) < 2 {
		return nil
	}
	s.Post(&cp.FuncConstraint{On: items, Run: func(s *cp.Solver) error {
		// Intersect the domains: all variables must share a value.
		for val := items[0].NextValue(0); val >= 0; val = items[0].NextValue(val + 1) {
			keep := true
			for _, v := range items[1:] {
				if !v.Contains(val) {
					keep = false
					break
				}
			}
			if !keep {
				if err := s.RemoveValue(items[0], val); err != nil {
					return err
				}
			}
		}
		// Mirror item 0's (now intersected) domain onto the others.
		for _, v := range items[1:] {
			for val := v.NextValue(0); val >= 0; val = v.NextValue(val + 1) {
				if !items[0].Contains(val) {
					if err := s.RemoveValue(v, val); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}})
	return nil
}

// Check verifies the covered running VMs share a node.
func (r Gather) Check(cfg *vjob.Configuration) error {
	host := ""
	first := ""
	for _, name := range r.VMs {
		h := cfg.HostOf(name)
		if h == "" {
			continue
		}
		if host == "" {
			host, first = h, name
			continue
		}
		if h != host {
			return fmt.Errorf("core: gather violated: %s on %s but %s on %s", first, host, name, h)
		}
	}
	return nil
}
