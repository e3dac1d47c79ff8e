package plan

import (
	"errors"
	"fmt"
	"slices"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// ErrNoProgress is returned when no action is feasible, no
// inter-dependent migration cycle can be broken with a pivot node, and
// actions remain: the destination configuration is not reachable.
var ErrNoProgress = errors.New("plan: no feasible action and no breakable migration cycle")

// Builder turns a reconfiguration graph into a reconfiguration plan.
// The zero value is ready to use and applies the paper's defaults.
type Builder struct {
	// DisableTransferGating skips the per-pool NIC admission of
	// DESIGN.md §9, letting concurrent transfers oversubscribe an
	// endpoint's `net` capacity the way the memory-only model did.
	// Only useful for blind-vs-aware studies; production callers keep
	// it false. On configurations without `net` capacities the flag is
	// moot: nothing is metered either way.
	DisableTransferGating bool
}

// Build is a convenience wrapper: it diffs the two configurations and
// plans the resulting graph with the default builder.
func Build(src, dst *vjob.Configuration) (*Plan, error) {
	g, err := BuildGraph(src, dst)
	if err != nil {
		return nil, err
	}
	return Builder{}.Plan(g)
}

// Plan builds the reconfiguration plan for the graph: the pools of
// actions feasible in parallel, then the consistency pass that starts
// the resumes of each vjob together (§4.1).
func (b Builder) Plan(g *Graph) (*Plan, error) {
	p, err := b.pools(g)
	if err != nil {
		return nil, err
	}
	groupVJobResumes(p)
	return p, nil
}

// pools iteratively extracts pools of actions feasible in parallel,
// breaking inter-dependent migration cycles with bypass migrations
// through pivot nodes when no action is directly feasible (§4.1).
func (b Builder) pools(g *Graph) (*Plan, error) {
	p := &Plan{Src: g.Src}
	cur := g.Src.Clone()
	remaining := append([]Action(nil), g.Actions...)
	free := make(map[string]resources.Vector)
	// Every action of g but a cycle's bypass lands in exactly one
	// extracted pool: the pools are cut from one array.
	spare := make(Pool, len(remaining))

	for len(remaining) > 0 {
		pool, rest := extractPool(cur, free, remaining, spare[:0], !b.DisableTransferGating)
		pool, spare = pool[:len(pool):len(pool)], spare[len(pool):]
		if len(pool) == 0 {
			bypass, rewritten, err := breakCycle(cur, remaining)
			if err != nil {
				return nil, err
			}
			p.Bypass++
			pool = Pool{bypass}
			remaining = rewritten
		} else {
			remaining = rest
		}
		pool.sortDeterministic()
		for _, a := range pool {
			if err := a.Apply(cur); err != nil {
				return nil, fmt.Errorf("plan: applying %s: %w", a, err)
			}
		}
		p.Pools = append(p.Pools, pool)
	}
	return p, nil
}

// extractPool selects a maximal set of actions feasible in parallel
// against the configuration at pool start. Resource-demanding actions
// reserve their demands so two actions cannot share the same free
// space; resources released by actions of the pool are NOT credited,
// because a parallel action cannot rely on a concurrent completion.
// free is the caller's scratch map: extractPool empties it, then
// holds there the remaining free vector of each node an action of the
// pool demands on, read from cur on the node's first demand. The pool
// is appended to pool; the actions left over are moved to the front of
// remaining, in order, and returned as its prefix.
//
// With gateTransfers set, each action's transfer demand (DESIGN.md §9)
// is additionally booked against the NIC capacities of its endpoints,
// and an action whose transfer would oversubscribe a NIC is deferred
// to a later pool. A transfer alone always fits (its demand is clamped
// to each NIC), so gating can only serialize pools, never empty them:
// the §4.1 progress guarantee is untouched.
func extractPool(cur *vjob.Configuration, free map[string]resources.Vector, remaining []Action, pool Pool, gateTransfers bool) (Pool, []Action) {
	clear(free)
	book := newTransferBook(cur)
	rest := remaining[:0]
	for _, a := range remaining {
		if gateTransfers && !book.fits(a) {
			rest = append(rest, a)
			continue
		}
		node, demand := demandOf(a)
		if node == "" { // pure release: always resource-feasible
			pool = append(pool, a)
			book.admit(a)
			continue
		}
		f, ok := free[node]
		if !ok {
			f = cur.Free(node)
		}
		if demand.Fits(f) {
			pool = append(pool, a)
			f = f.Sub(demand)
			book.admit(a)
		} else {
			rest = append(rest, a)
		}
		free[node] = f
	}
	return pool, rest
}

// demandOf returns the node an action consumes resources on, with the
// per-dimension amounts: the node a migration, run or resume leaves its
// VM running on, or "" for pure-release actions (suspend, stop).
func demandOf(a Action) (node string, demand resources.Vector) {
	switch a.Kind() {
	case KindMigrate, KindRun, KindResume:
		_, to := a.Nodes()
		return to, a.VM().Demand
	}
	return "", resources.Vector{}
}

// breakCycle handles the inter-dependent constraint of §4.1: a set of
// non-feasible migrations forming a cycle (Figure 8). It locates a
// cycle in the directed graph src->dst of the pending migrations,
// chooses a pivot node outside the cycle with room for one of the
// cycle's VMs, and splits that VM's migration into a bypass migration
// to the pivot followed by a migration from the pivot to the original
// destination. The bypass is feasible immediately.
func breakCycle(cur *vjob.Configuration, remaining []Action) (Action, []Action, error) {
	// Adjacency: for each node, the pending migrations leaving it.
	out := make(map[string][]*Migration)
	for _, a := range remaining {
		if m, ok := a.(*Migration); ok {
			out[m.Src] = append(out[m.Src], m)
		}
	}
	cycle := findMigrationCycle(out)
	if cycle == nil {
		return nil, nil, ErrNoProgress
	}
	inCycle := make(map[string]bool)
	for _, m := range cycle {
		inCycle[m.Src] = true
		inCycle[m.Dst] = true
	}
	for _, m := range cycle {
		for _, n := range cur.Nodes() {
			if inCycle[n.Name] || n.Name == m.Src {
				continue
			}
			if cur.Fits(m.Machine, n.Name) {
				bypass := &Migration{Machine: m.Machine, Src: m.Src, Dst: n.Name}
				rewritten := make([]Action, 0, len(remaining))
				for _, a := range remaining {
					if a == Action(m) {
						rewritten = append(rewritten, &Migration{Machine: m.Machine, Src: n.Name, Dst: m.Dst})
					} else {
						rewritten = append(rewritten, a)
					}
				}
				return bypass, rewritten, nil
			}
		}
	}
	return nil, nil, ErrNoProgress
}

// findMigrationCycle walks the src->dst edges of the pending
// migrations and returns the first cycle found, as the list of
// migrations composing it, or nil.
func findMigrationCycle(out map[string][]*Migration) []*Migration {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []*Migration
	var cycle []*Migration

	var dfs func(node string) bool
	dfs = func(node string) bool {
		color[node] = gray
		for _, m := range out[node] {
			switch color[m.Dst] {
			case white:
				stack = append(stack, m)
				if dfs(m.Dst) {
					return true
				}
				stack = stack[:len(stack)-1]
			case gray:
				// Found a back edge: extract the cycle from the stack.
				cycle = append(cycle, m)
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i].Src == m.Dst {
						break
					}
				}
				return true
			}
		}
		color[node] = black
		return false
	}
	// Deterministic start order.
	starts := make([]string, 0, len(out))
	for n := range out {
		starts = append(starts, n)
	}
	slices.Sort(starts)
	for _, n := range starts {
		if color[n] == white {
			stack = stack[:0]
			if dfs(n) {
				return cycle
			}
		}
	}
	return nil
}

// groupVJobResumes implements the consistency pass of §4.1: the VMs of
// a vjob must be suspended or resumed in parallel, within a short
// period. Suspends are naturally grouped in the first pool (they are
// always feasible); the resumes of a vjob are moved into the pool that
// initially contains the LAST resume of that vjob, so they start
// together. The move is kept only when the plan still validates, since
// delaying a resume may no longer be viable if later pools re-used the
// space. One vjob's move can rule out another's (both may crowd the
// same NIC), so the vjobs are tried in the order the pools first name
// them, and the pools are rebuilt once, from the moves kept.
//
// When the plan validates before the pass, a move is checked on its
// target pool alone, which is exact when a resumed VM has no other
// action in the plan (the builder gives it none). Before the target
// pool the moved VMs stay asleep, so every node carries at most the
// load it carried in a valid plan: every action stays feasible, every
// NIC book admits a subset of what it admitted, and no violation
// appears. From the end of the target pool on, both plans reach the
// same configurations. What is left is the target pool itself: each
// delayed resume must fit its node at the pool's start, and the pool's
// transfers must share the NICs. The NIC check needs no pool order: a
// book sums non-negative clamped rates per endpoint, and an action's
// two endpoints are distinct, so every prefix of the pool fits exactly
// when the whole pool does. One book per target pool therefore holds
// the pool's totals across moves: a kept move admits its resumes there
// and releases them from the book of each pool they leave. A plan that
// does not validate is re-validated whole per move, on candidate pools
// the same rebuild builds.
func groupVJobResumes(p *Plan) {
	groups := resumeGroups(p)
	valid := len(groups) > 0 && recordTargetFree(p, groups)
	delayed := make(map[string][]delay) // node -> resumes of kept moves
	var books []*transferBook           // by pool, built on first use as a target
	if valid {
		books = make([]*transferBook, len(p.Pools))
	}
	var kept []*resumeGroup
	for _, g := range groups {
		var ok bool
		if valid {
			ok = g.fitsTarget(delayed) && g.admit(p, books, kept)
		} else {
			ok = (&Plan{Src: p.Src, Pools: rebuild(nil, p.Pools, append(kept, g)), Bypass: p.Bypass}).Validate() == nil
		}
		if !ok {
			continue
		}
		kept = append(kept, g)
		for i, r := range g.late {
			delayed[r.On] = append(delayed[r.On], delay{from: g.from[i], to: g.target, demand: r.Machine.Demand})
		}
	}
	p.Pools = rebuild(p.Pools[:0], p.Pools, kept)
}

// resumeGroup is one vjob's resumes as the ungrouped plan spreads them:
// the pool of its last resume, and the resumes before that pool.
type resumeGroup struct {
	job    string
	target int
	late   []*Resume
	from   []int // pool of each late resume
	// free is, per node of a late resume, the free space at the start
	// of the target pool in the ungrouped plan; fitsTarget adds what
	// the moves free there.
	free map[string]resources.Vector
}

// delay is a resume a kept move took out of pool from into pool to: its
// VM does not run on its node from the start of from to that of to.
type delay struct {
	from, to int
	demand   resources.Vector
}

// resumeGroups returns the vjobs with a resume to move, in the order
// the pools first name them.
func resumeGroups(p *Plan) []*resumeGroup {
	var all []*resumeGroup
	byJob := make(map[string]*resumeGroup)
	for i, pool := range p.Pools {
		for _, a := range pool {
			if r, ok := a.(*Resume); ok && r.Machine.VJob != "" {
				g := byJob[r.Machine.VJob]
				if g == nil {
					g = &resumeGroup{job: r.Machine.VJob}
					byJob[g.job] = g
					all = append(all, g)
				}
				g.target = i
				g.late = append(g.late, r)
				g.from = append(g.from, i)
			}
		}
	}
	groups := all[:0]
	for _, g := range all {
		n := len(g.from)
		for n > 0 && g.from[n-1] == g.target {
			n--
		}
		if n > 0 {
			g.late, g.from = g.late[:n], g.from[:n]
			groups = append(groups, g)
		}
	}
	return groups
}

// recordTargetFree validates p in one replay that records each group's
// free space at the start of its target pool, and reports whether p
// validates.
func recordTargetFree(p *Plan, groups []*resumeGroup) bool {
	at := make([][]*resumeGroup, len(p.Pools))
	for _, g := range groups {
		at[g.target] = append(at[g.target], g)
	}
	return p.replay(func(i int, cur *vjob.Configuration) {
		for _, g := range at[i] {
			g.free = make(map[string]resources.Vector, len(g.late))
			for _, r := range g.late {
				g.free[r.On] = cur.Free(r.On)
			}
		}
	}) == nil
}

// poolAfter returns pool i once the kept groups have moved their late
// resumes: the pool itself when none leaves or enters it, else a new
// slice keeping its other actions in order, with the entering resumes
// appended and the pool sorted once.
func poolAfter(pools []Pool, kept []*resumeGroup, i int) Pool {
	var gone, in []Action
	for _, g := range kept {
		for k, r := range g.late {
			if g.from[k] == i {
				gone = append(gone, r)
			} else if g.target == i {
				in = append(in, r)
			}
		}
	}
	if len(gone)+len(in) == 0 {
		return pools[i]
	}
	pool := make(Pool, 0, len(pools[i])+len(in))
	for _, a := range pools[i] {
		if !slices.Contains(gone, a) {
			pool = append(pool, a)
		}
	}
	if len(in) > 0 {
		pool = append(pool, in...)
		pool.sortDeterministic()
	}
	return pool
}

// rebuild appends to out the pools the kept groups leave, emptied
// pools dropped. out may be pools[:0]: pool i is read before any pool
// past i is written.
func rebuild(out, pools []Pool, kept []*resumeGroup) []Pool {
	for i := range pools {
		if pool := poolAfter(pools, kept, i); len(pool) > 0 {
			out = append(out, pool)
		}
	}
	return out
}

// admit reports whether the target pool's transfers, the late resumes
// added, share the NICs, and if so books the resumes there and releases
// them from the books of the pools they leave. The target pool's book
// is built on its first use, from the pool the kept groups left.
func (g *resumeGroup) admit(p *Plan, books []*transferBook, kept []*resumeGroup) bool {
	book := books[g.target]
	if book == nil {
		book = newTransferBook(p.Src)
		for _, a := range poolAfter(p.Pools, kept, g.target) {
			book.admit(a)
		}
		books[g.target] = book
	}
	for i, r := range g.late {
		if !book.fits(r) {
			for _, r := range g.late[:i] {
				book.release(r)
			}
			return false
		}
		book.admit(r)
	}
	for i, r := range g.late {
		if b := books[g.from[i]]; b != nil {
			b.release(r)
		}
	}
	return true
}

// fitsTarget reports whether each late resume fits its node at the
// start of the target pool of the plan the kept moves have built, with
// the vjob's own late VMs not running yet.
func (g *resumeGroup) fitsTarget(delayed map[string][]delay) bool {
	for _, r := range g.late {
		g.free[r.On] = g.free[r.On].Add(r.Machine.Demand)
	}
	for node := range g.free {
		for _, d := range delayed[node] {
			if d.from < g.target && g.target <= d.to {
				g.free[node] = g.free[node].Add(d.demand)
			}
		}
	}
	for _, r := range g.late {
		if !r.Machine.Demand.Fits(g.free[r.On]) {
			return false
		}
	}
	return true
}
