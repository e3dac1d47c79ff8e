package plan

import (
	"fmt"
	"sort"
	"strings"

	"cwcs/internal/vjob"
)

// ErrBrokenDependency is returned by Repair when a kept remainder
// action depends on a dropped (or re-solved) action: dropping the
// dirty region removed a feasibility edge of §4.1 — typically a
// migration or suspend that was freeing the kept action's destination.
// Nodes and VMs carry the dependency closure of the broken chain: the
// elements that must join the dirty region so a widened re-solve can
// absorb the chain, instead of degrading to a monolithic re-solve.
//
// The closure is computed on the plan's own dependency structure:
// every kept action that is no longer feasible (or whose pool now
// introduces a violation) seeds the set, then any kept action sharing
// a node or VM with the set joins transitively — a later action of the
// same chain would lose its own feasibility argument once the seed
// leaves the remainder, so the whole chain is pulled at once and the
// widening converges in one step for simple chains.
type ErrBrokenDependency struct {
	// Nodes and VMs are the closure, in sorted order.
	Nodes, VMs []string
	// Cause is the validation failure that exposed the break.
	Cause error
}

// Error names the broken chain.
func (e *ErrBrokenDependency) Error() string {
	return fmt.Sprintf("plan: kept remainder depends on a dropped action (chain: nodes %s, vms %s): %v",
		strings.Join(e.Nodes, ","), strings.Join(e.VMs, ","), e.Cause)
}

// Unwrap exposes the underlying validation failure.
func (e *ErrBrokenDependency) Unwrap() error { return e.Cause }

// Repair splices fresh slice plans into the remainder of an executing
// plan instead of aborting it. cur is the observed configuration at a
// pool boundary (every started action has completed, successfully or
// not), remaining holds the pools that have not started, dirtyNodes
// and dirtyVMs delimit the region invalidated by failures or events —
// typically the full node/VM coverage of the re-solved slices, not
// just the failed elements — and fresh are the plans re-solved over
// exactly that region. Repair only reads the two maps and keeps
// neither, so a caller may refill them for its next repair.
//
// Repair keeps every remaining action outside the dirty region (their
// feasibility argument is untouched: the fresh plans never enter their
// nodes), drops the ones inside, and merges the fresh plans in. The
// result is re-validated pool by pool against cur, so a splice can
// never violate the feasibility-edge ordering of §4.1. When dropping a
// dirty action breaks a later kept action (for instance a migration
// that waited on a dropped suspend to free its destination), Repair
// refuses with ErrBrokenDependency carrying the dependency closure of
// the broken chain; the caller widens the dirty region by the closure
// and retries with plans re-solved over the wider region. Breaks the
// closure cannot explain — a fresh plan infeasible on its own — refuse
// with a plain error: those are true infeasibilities no widening
// repairs, and the caller falls back to a full re-solve.
func Repair(cur *vjob.Configuration, remaining *Plan, dirtyNodes, dirtyVMs map[string]bool, fresh ...*Plan) (*Plan, error) {
	kept := &Plan{Src: cur}
	if remaining != nil {
		for _, pool := range remaining.Pools {
			var np Pool
			for _, a := range pool {
				if touchesDirty(a, dirtyNodes, dirtyVMs) {
					continue
				}
				np = append(np, a)
			}
			if len(np) > 0 {
				kept.Pools = append(kept.Pools, np)
			}
		}
	}
	merged, err := Merge(cur, append([]*Plan{kept}, fresh...)...)
	if err != nil {
		return nil, err
	}
	if err := merged.Validate(); err != nil {
		freshActions := make(map[Action]bool)
		for _, f := range fresh {
			for _, a := range f.Actions() {
				freshActions[a] = true
			}
		}
		nodes, vms, freshBroken := brokenClosure(merged, freshActions)
		if freshBroken || len(nodes)+len(vms) == 0 {
			return nil, fmt.Errorf("plan: repair would break feasibility: %w", err)
		}
		return nil, &ErrBrokenDependency{Nodes: nodes, VMs: vms, Cause: err}
	}
	return merged, nil
}

// touchesDirty reports whether the action manipulates a dirty VM or
// reads/writes resources on a dirty node.
func touchesDirty(a Action, nodes, vms map[string]bool) bool {
	if vms[a.VM().Name] {
		return true
	}
	var buf [2]string
	for _, n := range AppendTouchedNodes(buf[:0], a) {
		if nodes[n] {
			return true
		}
	}
	return false
}

// brokenClosure replays the merged splice and collects the dependency
// closure of every kept action the splice broke. An action is broken
// when it is infeasible at its pool start, fails to apply, or sits in
// a pool that introduces a capacity violation on a node it touches —
// the §4.1 feasibility-edge signatures of a dropped predecessor. The
// seed then expands over the kept actions: any action sharing a node
// or VM with the set joins, until a fixpoint. freshBroken reports that
// a fresh plan's own action broke, which no widening can explain.
func brokenClosure(merged *Plan, fresh map[Action]bool) (nodes, vms []string, freshBroken bool) {
	cur := merged.Src.Clone()
	var over overloads
	over.reset(cur)
	brokenN := make(map[string]bool)
	brokenV := make(map[string]bool)
	mark := func(a Action) {
		if fresh[a] {
			freshBroken = true
			return
		}
		brokenV[a.VM().Name] = true
		var buf [2]string
		for _, n := range AppendTouchedNodes(buf[:0], a) {
			brokenN[n] = true
		}
	}
	var buf [2]string
	for _, pool := range merged.Pools {
		for _, a := range pool {
			if !a.FeasibleIn(cur) {
				mark(a)
			}
		}
		for _, a := range pool {
			if err := a.Apply(cur); err != nil {
				mark(a)
			}
		}
		for _, v := range over.audit(cur) {
			if !over.introduced(v) {
				continue
			}
			for _, a := range pool {
				for _, n := range AppendTouchedNodes(buf[:0], a) {
					if n == v.Node {
						mark(a)
						break
					}
				}
			}
		}
	}
	if freshBroken || len(brokenV)+len(brokenN) == 0 {
		return nil, nil, freshBroken
	}
	// Expand over the kept actions until the chain is closed: a kept
	// action overlapping the broken region loses its own feasibility
	// argument once the region is re-solved, so it must travel along.
	for changed := true; changed; {
		changed = false
		for _, a := range merged.Actions() {
			if fresh[a] || brokenV[a.VM().Name] {
				continue
			}
			touches := false
			for _, n := range AppendTouchedNodes(buf[:0], a) {
				if brokenN[n] {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			brokenV[a.VM().Name] = true
			for _, n := range AppendTouchedNodes(buf[:0], a) {
				if !brokenN[n] {
					brokenN[n] = true
				}
			}
			changed = true
		}
	}
	return sortedKeys(brokenN), sortedKeys(brokenV), false
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
