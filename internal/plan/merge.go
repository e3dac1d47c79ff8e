package plan

import (
	"errors"
	"fmt"

	"cwcs/internal/vjob"
)

// ErrOverlappingPlans is returned by Merge when two input plans touch a
// common node or VM: merging them could make a pool infeasible, so the
// union is refused.
var ErrOverlappingPlans = errors.New("plan: merged plans are not node/VM disjoint")

// Merge unions reconfiguration plans computed over disjoint slices of
// the cluster into one plan rooted at src: pool i of the merged plan is
// the union of pool i of every input. Because the inputs touch disjoint
// node and VM sets (which Merge verifies), every action stays feasible
// at its pool start and the merged plan reaches the union of the
// per-partition destinations — the feasibility argument of each input
// carries over unchanged.
//
// The §4.2 cost of the merged plan is conservative: pools act as
// synchronization barriers, so an action of a short partition inherits
// the elapsed time of the longest sibling pools. The true concurrent
// execution can only be faster; callers comparing costs across
// partition counts should keep that bias in mind.
func Merge(src *vjob.Configuration, plans ...*Plan) (*Plan, error) {
	out := &Plan{Src: src}
	seenNodes := make(map[string]int)
	seenVMs := make(map[string]int)
	var buf [2]string
	for i, p := range plans {
		if p == nil {
			return nil, fmt.Errorf("plan: merge of a nil plan (input %d)", i)
		}
		out.Bypass += p.Bypass
		for _, pool := range p.Pools {
			for _, a := range pool {
				for _, n := range AppendTouchedNodes(buf[:0], a) {
					if prev, ok := seenNodes[n]; ok && prev != i {
						return nil, fmt.Errorf("%w: node %s in plans %d and %d", ErrOverlappingPlans, n, prev, i)
					}
					seenNodes[n] = i
				}
				name := a.VM().Name
				if prev, ok := seenVMs[name]; ok && prev != i {
					return nil, fmt.Errorf("%w: VM %s in plans %d and %d", ErrOverlappingPlans, name, prev, i)
				}
				seenVMs[name] = i
			}
		}
		if len(p.Pools) > len(out.Pools) {
			out.Pools = append(out.Pools, make([]Pool, len(p.Pools)-len(out.Pools))...)
		}
		for j, pool := range p.Pools {
			out.Pools[j] = append(out.Pools[j], pool...)
		}
	}
	for _, pool := range out.Pools {
		pool.sortDeterministic()
	}
	// Inputs may have had trailing empty pools dropped unevenly; keep
	// the merged plan free of empty pools too.
	pools := out.Pools[:0]
	for _, pool := range out.Pools {
		if len(pool) > 0 {
			pools = append(pools, pool)
		}
	}
	out.Pools = pools
	return out, nil
}
