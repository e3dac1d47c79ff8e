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
// the resumes of each vjob together (§4.1), on a fresh Workspace.
func (b Builder) Plan(g *Graph) (*Plan, error) {
	return new(Workspace).plan(b, g, new(Plan))
}

// Workspace is the storage a planner reuses from plan to plan; no plan
// holds any of it. The zero value is ready for one goroutine.
type Workspace struct {
	g         Graph
	vms       []*vjob.VM
	diff      actionStore // the graph's actions, before they move into a plan
	cur       *vjob.Configuration
	remaining []Action
	free      map[string]resources.Vector
	book      transferBook
	group     grouping
}

// Plan is BuildGraph then Builder.Plan, run in w and in into's storage:
// a plan an earlier call returned, which no one reads any more, or nil.
func (w *Workspace) Plan(b Builder, src, dst *vjob.Configuration, into *Plan) (*Plan, error) {
	if into == nil {
		into = new(Plan)
	}
	d := &w.diff
	d.migrations, d.suspends, d.stops, d.resumes, d.runs = d.migrations[:0], d.suspends[:0], d.stops[:0], d.resumes[:0], d.runs[:0]
	g, err := w.graph(src, dst, d)
	if err != nil {
		return nil, err
	}
	s := &into.store
	moveInto(g, &s.migrations, d.migrations)
	moveInto(g, &s.suspends, d.suspends)
	moveInto(g, &s.stops, d.stops)
	moveInto(g, &s.resumes, d.resumes)
	moveInto(g, &s.runs, d.runs)
	return w.plan(b, g, into)
}

func (w *Workspace) plan(b Builder, g *Graph, p *Plan) (*Plan, error) {
	if err := w.pools(b, g, p); err != nil {
		return nil, err
	}
	w.group.run(p, w.cur)
	return p, nil
}

// actionStore is what a plan's actions and pools are cut from: a slab
// per action type, and the array the pools are windows of.
type actionStore struct {
	migrations []Migration
	suspends   []Suspend
	stops      []Stop
	resumes    []Resume
	runs       []Run
	pools      Pool
	regrouped  Pool // the pools resume grouping changed
}

// add appends a to the slab and returns the copy's address. A pointer
// into an array the slab outgrew stays valid: that array is dropped,
// never rewritten.
func add[T any](slab *[]T, a T) *T {
	*slab = append(*slab, a)
	return &(*slab)[len(*slab)-1]
}

// moveInto copies the graph's actions of one type from their slab into
// dst, grown at most once, and points the graph at the copies.
func moveInto[T any, P interface {
	*T
	Action
}](g *Graph, dst *[]T, from []T) {
	*dst = append((*dst)[:0], from...)
	k := 0
	for i, a := range g.Actions {
		if _, ok := a.(P); ok {
			g.Actions[i], k = P(&(*dst)[k]), k+1
		}
	}
}

// pools iteratively extracts pools of actions feasible in parallel,
// breaking inter-dependent migration cycles with bypass migrations
// through pivot nodes when no action is directly feasible (§4.1).
func (w *Workspace) pools(b Builder, g *Graph, p *Plan) error {
	p.Src, p.Pools, p.Bypass = g.Src, p.Pools[:0], 0
	w.cur = g.Src.CloneInto(w.cur)
	remaining, free := append(w.remaining[:0], g.Actions...), emptied(w.free)
	w.free = free
	// Every action of g but a cycle's bypass lands in exactly one
	// extracted pool: the pools are cut from one array.
	p.store.pools = resize(p.store.pools, len(remaining))
	spare := p.store.pools

	for len(remaining) > 0 {
		pool, rest := extractPool(w.cur, free, &w.book, remaining, spare[:0], !b.DisableTransferGating)
		pool, spare = pool[:len(pool):len(pool)], spare[len(pool):]
		if len(pool) == 0 {
			bypass, rewritten, err := breakCycle(w.cur, remaining)
			if err != nil {
				return err
			}
			p.Bypass++
			pool = Pool{bypass}
			remaining = rewritten
		} else {
			remaining = rest
		}
		pool.sortDeterministic()
		for _, a := range pool {
			if err := a.Apply(w.cur); err != nil {
				return fmt.Errorf("plan: applying %s: %w", a, err)
			}
		}
		p.Pools = append(p.Pools, pool)
	}
	w.remaining = remaining
	return nil
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
// is additionally booked in book, emptied first, against the NIC
// capacities of its endpoints, and an action whose transfer would
// oversubscribe a NIC is deferred to a later pool. A transfer alone
// always fits (its demand is clamped to each NIC), so gating can only
// serialize pools, never empty them: the §4.1 progress guarantee is
// untouched.
func extractPool(cur *vjob.Configuration, free map[string]resources.Vector, book *transferBook, remaining []Action, pool Pool, gateTransfers bool) (Pool, []Action) {
	clear(free)
	book.reset(cur)
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

// run is resume grouping, the consistency pass of §4.1: the VMs of
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
func (w *grouping) run(p *Plan, cur *vjob.Configuration) {
	groups := w.resumeGroups(p)
	valid := len(groups) > 0 && w.recordTargetFree(p, groups, cur)
	w.delayed = w.delayed[:0] // the resumes of kept moves
	// A NIC book by pool, built on first use as a target.
	if valid {
		w.books = resize(w.books, len(p.Pools))
		for i := range w.books {
			w.books[i].cfg = nil
		}
	}
	kept := w.kept[:0]
	for _, g := range groups {
		var ok bool
		if valid {
			ok = g.fitsTarget(w.delayed) && g.admit(p, w, kept)
		} else {
			w.tmp = w.tmp[:0]
			ok = (&Plan{Src: p.Src, Pools: w.rebuild(nil, &w.tmp, p.Pools, append(kept, g)), Bypass: p.Bypass}).Validate() == nil
		}
		if !ok {
			continue
		}
		kept = append(kept, g)
		for i, r := range g.late {
			w.delayed = append(w.delayed, delay{node: r.On, from: g.from[i], to: g.target, demand: r.Machine.Demand})
		}
	}
	if len(kept) > 0 { // the pools the moves change hold at most the plan's actions
		p.store.regrouped = slices.Grow(p.store.regrouped[:0], p.NumActions())
	}
	p.Pools = w.rebuild(p.Pools[:0], &p.store.regrouped, p.Pools, kept)
	w.kept = kept
}

// grouping is the storage resume grouping reuses from plan to plan.
type grouping struct {
	gone, in, tmp   Pool // poolAfter's, and the pools it cuts for a check
	made, all, kept []*resumeGroup
	used            int // groups of made handed out for this plan
	byJob           map[string]*resumeGroup
	at              [][]*resumeGroup
	delayed         []delay
	books           []transferBook
	book            transferBook // the replay's
	over            overloads    // the replay's
}

// resize returns buf at length n, in its own array when that holds n.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// emptied returns m emptied, or a new map when m is nil.
func emptied[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	clear(m)
	return m
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
// VM does not run on node from the start of from to that of to.
type delay struct {
	node     string
	from, to int
	demand   resources.Vector
}

// resumeGroups returns the vjobs with a resume to move, in the order
// the pools first name them.
func (w *grouping) resumeGroups(p *Plan) []*resumeGroup {
	all := w.all[:0]
	w.used, w.byJob = 0, emptied(w.byJob)
	for i, pool := range p.Pools {
		for _, a := range pool {
			if r, ok := a.(*Resume); ok && r.Machine.VJob != "" {
				g := w.byJob[r.Machine.VJob]
				if g == nil {
					if w.used == len(w.made) {
						w.made = append(w.made, new(resumeGroup))
					}
					g = w.made[w.used]
					w.used++
					g.job, g.late, g.from = r.Machine.VJob, g.late[:0], g.from[:0]
					w.byJob[g.job] = g
					all = append(all, g)
				}
				g.target = i
				g.late = append(g.late, r)
				g.from = append(g.from, i)
			}
		}
	}
	w.all = all
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

// recordTargetFree validates p in one replay, on cur's storage, that
// records each group's free space at the start of its target pool, and
// reports whether p validates.
func (w *grouping) recordTargetFree(p *Plan, groups []*resumeGroup, cur *vjob.Configuration) bool {
	at := resize(w.at, len(p.Pools))
	for i := range at {
		at[i] = at[i][:0]
	}
	w.at = at
	for _, g := range groups {
		at[g.target] = append(at[g.target], g)
	}
	return p.replay(p.Src.CloneInto(cur), &w.book, &w.over, func(i int, cur *vjob.Configuration) {
		for _, g := range at[i] {
			g.free = emptied(g.free)
			for _, r := range g.late {
				g.free[r.On] = cur.Free(r.On)
			}
		}
	}) == nil
}

// poolAfter returns pool i once the kept groups have moved their late
// resumes: the pool itself when none leaves or enters it, else a
// window appended to buf keeping its other actions in order, with the
// entering resumes appended and the pool sorted once.
func (w *grouping) poolAfter(buf *Pool, pools []Pool, kept []*resumeGroup, i int) Pool {
	gone, in := w.gone[:0], w.in[:0]
	for _, g := range kept {
		for k, r := range g.late {
			if g.from[k] == i {
				gone = append(gone, r)
			} else if g.target == i {
				in = append(in, r)
			}
		}
	}
	w.gone, w.in = gone, in
	if len(gone)+len(in) == 0 {
		return pools[i]
	}
	*buf = slices.Grow(*buf, len(pools[i])+len(in))
	start := len(*buf)
	for _, a := range pools[i] {
		if !slices.Contains(gone, a) {
			*buf = append(*buf, a)
		}
	}
	*buf = append(*buf, in...)
	pool := (*buf)[start:len(*buf):len(*buf)]
	if len(in) > 0 {
		pool.sortDeterministic()
	}
	return pool
}

// rebuild appends to out the pools the kept groups leave, emptied
// pools dropped, the changed ones cut from buf. out may be pools[:0]:
// pool i is read before any pool past i is written.
func (w *grouping) rebuild(out []Pool, buf *Pool, pools []Pool, kept []*resumeGroup) []Pool {
	for i := range pools {
		if pool := w.poolAfter(buf, pools, kept, i); len(pool) > 0 {
			out = append(out, pool)
		}
	}
	return out
}

// admit reports whether the target pool's transfers, the late resumes
// added, share the NICs, and if so books the resumes there and releases
// them from the books of the pools they leave. The target pool's book
// is built on its first use, from the pool the kept groups left.
func (g *resumeGroup) admit(p *Plan, w *grouping, kept []*resumeGroup) bool {
	book := &w.books[g.target]
	if book.cfg == nil {
		book.reset(p.Src)
		w.tmp = w.tmp[:0]
		for _, a := range w.poolAfter(&w.tmp, p.Pools, kept, g.target) {
			book.admit(a)
		}
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
		if b := &w.books[g.from[i]]; b.cfg != nil {
			b.release(r)
		}
	}
	return true
}

// fitsTarget reports whether each late resume fits its node at the
// start of the target pool of the plan the kept moves have built, with
// the vjob's own late VMs not running yet.
func (g *resumeGroup) fitsTarget(delayed []delay) bool {
	for _, r := range g.late {
		g.free[r.On] = g.free[r.On].Add(r.Machine.Demand)
	}
	for _, d := range delayed {
		if f, ok := g.free[d.node]; ok && d.from < g.target && g.target <= d.to {
			g.free[d.node] = f.Add(d.demand)
		}
	}
	for _, r := range g.late {
		if !r.Machine.Demand.Fits(g.free[r.On]) {
			return false
		}
	}
	return true
}
