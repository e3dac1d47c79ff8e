package plan

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"cwcs/internal/vjob"
)

// Pool is a set of actions that are feasible in parallel: every action
// of a pool can start as soon as the previous pool has completed.
type Pool []Action

// Cost of a pool is the cost of its most expensive action (§4.2).
func (p Pool) Cost() int {
	max := 0
	for _, a := range p {
		if c := a.Cost(); c > max {
			max = c
		}
	}
	return max
}

// sortDeterministic orders the actions of the pool by kind then VM
// name, which both stabilizes output and matches the paper's
// "sorted using the hostname of the VMs" pipelining rule (our VM names
// embed their vjob, giving the same grouping effect).
func (p Pool) sortDeterministic() {
	slices.SortStableFunc(p, func(a, b Action) int {
		if c := cmp.Compare(a.Kind(), b.Kind()); c != 0 {
			return c
		}
		return strings.Compare(a.VM().Name, b.VM().Name)
	})
}

// Plan is a reconfiguration plan: a sequence of pools executed one
// after the other, the actions inside a pool running in parallel. A
// valid plan guarantees that each action is feasible at the time it
// starts and that the final configuration equals the destination of
// the reconfiguration graph it was built from.
type Plan struct {
	// Src is the configuration the plan starts from.
	Src *vjob.Configuration
	// Pools are the sequential steps of the plan.
	Pools []Pool
	// Bypass counts the extra migrations inserted to break
	// inter-dependent migration cycles.
	Bypass int
	store  actionStore // what a Workspace cut the actions and pools from
}

// NumActions returns the total number of actions across pools.
func (p *Plan) NumActions() int {
	n := 0
	for _, pool := range p.Pools {
		n += len(pool)
	}
	return n
}

// Actions returns all actions in execution order (pool by pool).
func (p *Plan) Actions() []Action {
	out := make([]Action, 0, p.NumActions())
	for _, pool := range p.Pools {
		out = append(out, pool...)
	}
	return out
}

// Cost evaluates the plan with the model of §4.2: the cost of the plan
// is the sum of the total costs of its actions; the total cost of an
// action is the sum of the costs of the preceding pools plus the local
// cost of the action; the cost of a pool is the cost of its most
// expensive action. The model conservatively assumes that delaying an
// action degrades the context switch.
func (p *Plan) Cost() int {
	total := 0
	elapsed := 0
	for _, pool := range p.Pools {
		for _, a := range pool {
			total += elapsed + a.Cost()
		}
		elapsed += pool.Cost()
	}
	return total
}

// Result replays the plan on a clone of Src and returns the final
// configuration.
func (p *Plan) Result() (*vjob.Configuration, error) {
	cur := p.Src.Clone()
	for i, pool := range p.Pools {
		for _, a := range pool {
			if err := a.Apply(cur); err != nil {
				return nil, fmt.Errorf("plan: pool %d: %w", i, err)
			}
		}
	}
	return cur, nil
}

// Validate replays the plan checking, pool by pool, that every action
// is feasible when its pool starts, that the pool's concurrent
// transfers do not oversubscribe any endpoint's NIC (DESIGN.md §9;
// nodes without a modeled `net` capacity are exempt), and that every
// intermediate configuration stays viable. It returns the first
// problem found.
//
// A context switch may legitimately start from a non-viable
// configuration (that is often why it happens), so the constraint
// bears on what the plan itself creates: only violations the plan
// introduces are errors. A pre-existing overload that persists — or
// shrinks — through the early pools is the cure in progress, not a new
// disease: a plan evacuating an overloaded node keeps a smaller
// violation alive on it until the last migration leaves.
func (p *Plan) Validate() error {
	return p.replay(p.Src.Clone(), new(transferBook), new(overloads), nil)
}

// replay is Validate on cur, a copy of Src the replay moves forward,
// book and over, calling atStart, when set, with each pool's index and
// the configuration at its start.
func (p *Plan) replay(cur *vjob.Configuration, book *transferBook, over *overloads, atStart func(pool int, cur *vjob.Configuration)) error {
	over.reset(cur)
	for i, pool := range p.Pools {
		if atStart != nil {
			atStart(i, cur)
		}
		book.reset(cur)
		for _, a := range pool {
			if !a.FeasibleIn(cur) {
				return fmt.Errorf("plan: pool %d: action %s not feasible at pool start", i, a)
			}
			if !book.fits(a) {
				return fmt.Errorf("plan: pool %d: action %s oversubscribes a NIC", i, a)
			}
			book.admit(a)
		}
		for _, a := range pool {
			if err := a.Apply(cur); err != nil {
				return fmt.Errorf("plan: pool %d: %w", i, err)
			}
		}
		for _, v := range over.audit(cur) {
			if over.introduced(v) {
				return fmt.Errorf("plan: pool %d introduces violation: %v", i, v)
			}
		}
	}
	return nil
}

// overloads is a replay's violation storage: each violated (node,
// resource) pair of the source mapped to its demand, so a replay can
// tell a pre-existing overload the plan is still working off from one
// the plan created, and the list each pool's audit fills. The zero
// value is ready; kept from replay to replay, it allocates nothing.
type overloads struct {
	src  map[[2]string]int
	list []vjob.Violation
}

// reset records c's violations as the source's.
func (o *overloads) reset(c *vjob.Configuration) {
	clear(o.src)
	vs := o.audit(c)
	if o.src == nil && len(vs) > 0 {
		o.src = make(map[[2]string]int, len(vs))
	}
	for _, v := range vs {
		o.src[[2]string{v.Node, v.Resource}] = v.Demand
	}
}

// audit returns c's violations, in the list the last audit returned.
func (o *overloads) audit(c *vjob.Configuration) []vjob.Violation {
	o.list = c.AppendViolations(o.list[:0])
	return o.list
}

// introduced reports whether the violation is the plan's own doing:
// the (node, resource) pair was not overloaded in the source
// configuration, or the plan pushed its demand above the source level.
func (o *overloads) introduced(v vjob.Violation) bool {
	d, ok := o.src[[2]string{v.Node, v.Resource}]
	return !ok || v.Demand > d
}

// String renders the plan pool by pool, with per-pool and total costs.
func (p *Plan) String() string {
	var b strings.Builder
	elapsed := 0
	for i, pool := range p.Pools {
		fmt.Fprintf(&b, "pool %d (cost %d):\n", i, pool.Cost())
		for _, a := range pool {
			fmt.Fprintf(&b, "  %s (local %d, total %d)\n", a, a.Cost(), elapsed+a.Cost())
		}
		elapsed += pool.Cost()
	}
	fmt.Fprintf(&b, "plan cost: %d\n", p.Cost())
	return b.String()
}
