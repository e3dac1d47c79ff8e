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
	actions := 0
	for _, p := range plans {
		if p != nil {
			actions += p.NumActions()
		}
	}
	// An action names one VM and at most two nodes.
	seenNodes := make(map[string]int, min(src.NumNodes(), 2*actions))
	seenVMs := make(map[string]int, min(src.NumVMs(), actions))
	var buf [2]string
	var lens []int // per merged pool, the summed length of the pools it joins
	for i, p := range plans {
		if p == nil {
			return nil, fmt.Errorf("plan: merge of a nil plan (input %d)", i)
		}
		out.Bypass += p.Bypass
		for j, pool := range p.Pools {
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
			if j == len(lens) {
				lens = append(lens, 0)
			}
			lens[j] += len(pool)
		}
	}
	// Inputs may have had trailing empty pools dropped unevenly; keep
	// the merged plan free of empty pools too.
	out.Pools = make([]Pool, 0, len(lens))
	for j, n := range lens {
		if n == 0 {
			continue
		}
		pool := make(Pool, 0, n)
		for _, p := range plans {
			if j < len(p.Pools) {
				pool = append(pool, p.Pools[j]...)
			}
		}
		pool.sortDeterministic()
		out.Pools = append(out.Pools, pool)
	}
	return out, nil
}
