// Package core implements the paper's contribution: the cluster-wide
// context switch engine. Given the current configuration and the vjob
// states a decision module asks for, the engine searches — with the
// constraint-programming model of §4.3 — for a viable destination
// configuration whose reconfiguration plan is as cheap as possible,
// then emits that plan. The package also provides the First-Fit-
// Decrease baseline planner the paper compares against (§5.1) and the
// Entropy control loop (§3.1): observe, decide, plan, execute.
package core

import (
	"fmt"
	"slices"
	"time"

	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// Problem is one reconfiguration request: the current configuration
// and the state each vjob must reach. VMs whose vjob is absent from
// Target keep their current state (the keepVMState constraint); the
// solver may still migrate running VMs to make room.
type Problem struct {
	// Src is the observed configuration.
	Src *vjob.Configuration
	// Target maps vjob names to the state the decision module wants
	// (mustBeRunning / mustBeReady / terminated).
	Target map[string]vjob.State
	// Rules are administrator placement constraints (Spread, Ban,
	// Fence, Gather) maintained during the optimization (§7).
	Rules []PlacementRule
}

// vmGoal is the per-VM compilation of the problem.
type vmGoal struct {
	vm   *vjob.VM
	cur  vjob.State
	want vjob.State
	// curLoc is the hosting node (running) or image node (sleeping).
	curLoc string
}

// wantOf resolves the state the decision module asks of the VM v,
// currently in state cur: its vjob's target, or cur when the vjob has
// none. A vjob can be in a transiently mixed state (e.g. partially
// placed), so a target that is a no-op for the VM's own state is
// coerced rather than rejected: a waiting VM of a vjob sent to
// Sleeping has nothing to suspend and stays Waiting.
func (p Problem) wantOf(v *vjob.VM, cur vjob.State) vjob.State {
	want, ok := p.Target[v.VJob]
	if !ok || (want == vjob.Sleeping && cur == vjob.Waiting) {
		return cur
	}
	return want
}

// compile expands the per-vjob targets into per-VM goals, in goals'
// storage when it has room, and validates them against the life cycle.
func (p Problem) compile(goals []vmGoal) ([]vmGoal, error) {
	goals = slices.Grow(goals[:0], p.Src.NumVMs())
	for _, v := range p.Src.VMs() {
		cur := p.Src.StateOf(v.Name)
		want := p.wantOf(v, cur)
		if !vjob.ValidTransition(cur, want) {
			return nil, fmt.Errorf("core: vjob %s: VM %s cannot go %v -> %v", v.VJob, v.Name, cur, want)
		}
		goals = append(goals, vmGoal{vm: v, cur: cur, want: want, curLoc: p.Src.LocationOf(v.Name)})
	}
	return goals, nil
}

// runContribution returns the plan-cost contribution (Table 1, with
// Dm widened to plan.TransferSize) of hosting the VM of g on its
// current node (home) or on another when the target state is Running:
// 0 to stay or boot, TransferSize to migrate, TransferSize to resume
// locally, 2·TransferSize to resume remotely. Mirroring the
// Action.Cost() fold keeps the bound tight; on 2-D instances
// TransferSize is exactly Dm.
func (g vmGoal) runContribution(home bool) int {
	switch g.cur {
	case vjob.Running:
		if home {
			return 0
		}
		return plan.TransferSize(g.vm)
	case vjob.Sleeping:
		if home {
			return plan.TransferSize(g.vm)
		}
		return 2 * plan.TransferSize(g.vm)
	default: // waiting: a run action
		return 0
	}
}

// fixedCost returns the cost the goal incurs regardless of placement
// (suspends of running VMs headed to Sleeping). Stops are free.
func (g vmGoal) fixedCost() int {
	if g.want == vjob.Sleeping && g.cur == vjob.Running {
		return plan.TransferSize(g.vm)
	}
	return 0
}

// Satisfied reports whether the problem needs no reconfiguration at
// all: the source is viable, every rule holds, and every VM already
// sits in its (coerced) target state. For a satisfied problem the
// optimal plan is provably empty — staying put has cost 0, the
// minimum — so callers can skip the solver outright; the event-driven
// loop uses this to discharge clean slices without burning budget.
func (p Problem) Satisfied() bool {
	if !p.Src.Viable() || !rulesHold(p.Rules, p.Src) {
		return false
	}
	for _, v := range p.Src.VMs() {
		if cur := p.Src.StateOf(v.Name); p.wantOf(v, cur) != cur {
			return false
		}
	}
	return true
}

// Result is the outcome of an optimization: the destination
// configuration, its reconfiguration plan and cost, plus solver
// telemetry.
type Result struct {
	// Dst is the viable destination configuration.
	Dst *vjob.Configuration
	// Plan realizes Src -> Dst.
	Plan *plan.Plan
	// Cost is the plan cost under the §4.2 model.
	Cost int
	// LowerBound is the action-cost sum of the returned assignment: the
	// §4.2 cost of every action it implies, as if all ran in one pool.
	// It is the objective (cp.Solution.Objective) of the solution the
	// search found, which the cost bound holds at exactly that sum. It
	// bounds the cost of plans reaching that destination only, not of
	// plans for another assignment of the same target states, so it is
	// no optimality gap: another search (more workers, another value
	// order) may return a plan cheaper than this value. With Partitions
	// > 1 it is the sum of the per-slice values; a result the search
	// did not produce (a warm or FFD seed) reports 0.
	LowerBound int
	// Optimal is true when the solver proved no cheaper configuration
	// exists (with respect to its bound) before the timeout.
	Optimal bool
	// Solutions counts the configurations the search found that decoded
	// into a plan, improving or not (the improving ones are counted per
	// worker in Outcomes and listed in Trajectory). A seed is not one:
	// a result the search never touched reports 0, FFDPlan's own its 1.
	Solutions int
	// Nodes and Fails are search counters.
	Nodes, Fails int64
	// Partitions is how many node-disjoint sub-problems were solved
	// to produce this result; 0 or 1 means the monolithic
	// model. With Partitions > 1, Optimal means every partition proved
	// its slice optimal — the merged plan is not necessarily a global
	// optimum, since cross-partition migrations were never considered.
	Partitions int
	// Winner names what produced the returned plan: the portfolio
	// worker's label, "base" or "shuffle#N" (see Optimizer.Workers);
	// "warm-seed" / "ffd-seed" when no worker beat the seed. On a
	// partitioned solve it is the most frequent per-partition winner.
	Winner string
	// WarmHit reports that the WarmStart assignment was still viable
	// for this problem and seeded the incumbent (whether a warm start
	// was offered at all is the caller's knowledge: Optimizer.WarmStart
	// != nil).
	WarmHit bool
	// Outcomes are the per-portfolio-worker search outcomes, sorted by
	// label. A one-worker solve reports one "base" entry; a
	// partitioned solve merges per-partition outcomes by label.
	Outcomes []WorkerOutcome
	// Trajectory is the incumbent-bound trajectory: one point per
	// improving solution, offset in wall seconds from the search start.
	// Empty on partitioned solves.
	Trajectory []BoundPoint
	// Wall is how long the solve took, seeds included. The workers of
	// a set of slices solve theirs side by side, so their walls overlap.
	Wall time.Duration
	// Phases says what that time went on.
	Phases Phases
}

// Phases splits the time of a solve by what it was spent on. Portfolio
// workers and slices run side by side and each adds its own time, so
// the sum can exceed Wall.
type Phases struct {
	Compile time.Duration `json:"compileNs"` // problem to goals, domains and cost table
	Seeds   time.Duration `json:"seedsNs"`   // the FFD and warm-start seed plans
	Build   time.Duration `json:"buildNs"`   // one CP model per worker
	Search  time.Duration `json:"searchNs"`  // inside the CP solver
	Plan    time.Duration `json:"planNs"`    // per solution found: decode, graph, plan
}

func (p *Phases) add(q Phases) {
	p.Compile += q.Compile
	p.Seeds += q.Seeds
	p.Build += q.Build
	p.Search += q.Search
	p.Plan += q.Plan
}
