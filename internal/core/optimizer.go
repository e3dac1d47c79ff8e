package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cwcs/internal/cp"
	"cwcs/internal/packing"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// ErrNoViableConfiguration is returned when no viable destination
// configuration satisfies the requested vjob states at all.
var ErrNoViableConfiguration = errors.New("core: no viable configuration for the requested states")

// Optimizer computes, for a Problem, a viable destination
// configuration with a reconfiguration plan as cheap as possible. It
// implements §4.3: assignment variables per running VM over the node
// set, multi-knapsack viability constraints, a dynamically maintained
// lower bound on the future plan cost, first-fail variable ordering
// (hardest VMs first) and prefer-current-host value ordering, inside a
// branch-and-bound loop driven by the true §4.2 plan cost.
//
// The zero value uses the paper's heuristics with no time limit; set
// Timeout to bound the search (the paper uses 40 s for the §5.1
// study).
type Optimizer struct {
	// Timeout bounds the whole optimization — for the event-driven
	// Loop, a whole batch of dirty slices; zero means none.
	Timeout time.Duration
	// Partitions decomposes the problem into node-disjoint
	// sub-problems, solved on a pool of min(slices, GOMAXPROCS)
	// workers and merged (see Partitioner and plan.Merge): 0 picks the
	// partition count automatically from the cluster size (one slice
	// per ~16 nodes, so clusters of 16 nodes or fewer stay monolithic),
	// 1 forces the monolithic model, larger values request that many
	// partitions (capped by the problem's decomposability). Partitioned solves
	// trade global optimality for throughput: each slice is optimized
	// independently, so cross-partition migrations are never
	// considered, but the merged plan stays viable and honors every
	// placement rule. A partition left without a plan (a VM whose only
	// hosts landed elsewhere) is solved again joined with the roomiest
	// solved one; if that fails too, the whole problem falls back to
	// the monolithic model within the same budget.
	Partitions int
	// Workers is the number of parallel portfolio workers racing the
	// branch-and-bound: each worker builds its own model and all
	// workers share the incumbent bound, so the fixed time budget buys
	// more explored nodes on multi-core hardware. Every worker runs the
	// paper's search; worker k > 0 shuffles its value order with seed
	// k. The lineup is "base", "shuffle#1", "shuffle#2", … Zero
	// defaults to runtime.GOMAXPROCS(0); 1 is the sequential search —
	// "base" alone, on the caller's goroutine, deterministic for a
	// given problem.
	Workers int
	// PinRunning forbids migrating VMs that are already running: each
	// keeps its current host. This models a static RMS (the §5.2 FCFS
	// baseline never moves a placed job) and is also a useful
	// ablation of the migration action.
	PinRunning bool
	// WarmStart, when non-nil, is the destination configuration of a
	// previous solve of a nearby problem (the event-driven loop feeds
	// the last incumbent assignment here). It seeds the search twice:
	// the old assignment, when still viable for this problem, becomes
	// the initial incumbent alongside the FFD plan — so the
	// branch-and-bound starts from its bound — and per-VM warm hints
	// (cp.IntVar.SetHint) steer every worker's value ordering towards
	// the old hosts before diversifying.
	WarmStart *vjob.Configuration
	// Builder plans the graphs of candidate configurations.
	Builder plan.Builder
}

// workers resolves the effective portfolio width.
func (o Optimizer) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// compiled is the compilation of a Problem, shared read-only by every
// portfolio worker.
type compiled struct {
	goals   []vmGoal
	runners []vmGoal // hardest first; one assignment variable each
	fixed   int      // cost incurred regardless of placement
	nodes   []*vjob.Node
	nodeIdx map[string]int
	allowed [][]int // per runner: candidate node indices
	// rows[i][j] is the placement cost of runner i on node j, filled
	// for its allowed nodes; order[i] lists those nodes cheapest first,
	// ties by index. The cost bound and maxObj read these.
	rows   [][]int32
	order  [][]int32
	prefs  []int // per runner: preferred node index, -1 when none
	hints  []int // per runner: warm-start node index, -1 when none
	maxObj int
	// active marks the resource dimensions some runner demands: one
	// cp.Packing instance compiles per active dimension, zero-demand
	// dimensions compile away entirely.
	active [resources.MaxKinds]bool

	// What compile works in, kept for the next compile into the same
	// compiled: every node index in order, each node's free vector and
	// cheapest release, the allowed lists of runners that misfit some
	// node, the cost table and orders that rows and order cut, and the
	// nodes off a runner's base price.
	every, misfits []int
	free           []resources.Vector
	release        []int
	table, orders  []int32
	odd            []int32
}

// resize returns buf at length n, in its own array when that holds n:
// what it held is left there for the caller to overwrite.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// emptied returns m emptied, or a new map sized for n when m is nil.
func emptied[K comparable, V any](m map[K]V, n int) map[K]V {
	if m == nil {
		return make(map[K]V, n)
	}
	clear(m)
	return m
}

// compile expands the problem into the shared model ingredients. It
// fills c, whose storage an earlier compile may have left.
func (o Optimizer) compile(p Problem, c *compiled) (*compiled, error) {
	goals, err := p.compile(c.goals)
	if err != nil {
		return nil, err
	}
	c.goals = goals
	c.nodes = p.Src.AppendNodes(slices.Grow(c.nodes[:0], p.Src.NumNodes()))
	c.nodeIdx = emptied(c.nodeIdx, len(c.nodes))
	for i, n := range c.nodes {
		c.nodeIdx[n.Name] = i
	}

	// Runners: every VM whose destination state is Running gets an
	// assignment variable; everything else contributes fixed costs.
	c.runners, c.fixed, c.active = c.runners[:0], 0, [resources.MaxKinds]bool{}
	for _, g := range goals {
		if g.want == vjob.Running {
			c.runners = append(c.runners, g)
		} else {
			c.fixed += g.fixedCost()
		}
	}
	// Hardest VMs first (§4.3 first-fail flavor): decreasing memory
	// then CPU demand.
	slices.SortStableFunc(c.runners, func(x, y vmGoal) int {
		a, b := x.vm, y.vm
		if a.MemoryDemand() != b.MemoryDemand() {
			return cmp.Compare(b.MemoryDemand(), a.MemoryDemand())
		}
		if a.CPUDemand() != b.CPUDemand() {
			return cmp.Compare(b.CPUDemand(), a.CPUDemand())
		}
		return strings.Compare(a.Name, b.Name)
	})

	// Active dimensions: a resource kind some to-be-running VM actually
	// demands. Only these compile into cp.Packing instances below, so a
	// CPU+memory instance builds exactly the two constraints it always
	// did and extra registered kinds cost nothing until a workload uses
	// them.
	for _, g := range c.runners {
		for _, k := range resources.Kinds() {
			if g.vm.Demand.Get(k) > 0 {
				c.active[k] = true
			}
		}
	}

	// The §4.2 sequencing delay: a VM sent to a node where it does not
	// fit right now waits for at least one release there, so its cost
	// rises by release[j], the cheapest among the actions that free
	// node j (0 for a stop, Dm for a suspend or an outbound migration;
	// -1 when none does). The estimate stays a lower bound of the true
	// plan cost, which keeps the branch-and-bound admissible while
	// steering the search towards nodes that are free immediately.
	every := resize(c.every, len(c.nodes)) // the allowed nodes of a runner that fits them all
	free := resize(c.free, len(c.nodes))
	release := resize(c.release, len(c.nodes))
	c.every, c.free, c.release = every, free, release
	for j, n := range c.nodes {
		every[j], free[j], release[j] = j, p.Src.Free(n.Name), -1
	}
	for _, g := range goals {
		j, ok := c.nodeIdx[g.curLoc]
		if !ok || g.cur != vjob.Running {
			continue
		}
		rel := 0 // a stop
		if g.want != vjob.Terminated {
			rel = plan.TransferSize(g.vm)
		}
		if release[j] < 0 || rel < release[j] {
			release[j] = rel
		}
	}

	c.allowed = resize(c.allowed, len(c.runners))
	c.prefs = resize(c.prefs, len(c.runners))
	c.hints = resize(c.hints, len(c.runners))
	// An entry is at most 2·TransferSize (a remote resume) plus one
	// release, itself at most a TransferSize: MiB counts that int32
	// holds for any VM below 512 TiB, as do node indices. Half the
	// width halves compile's two largest allocations.
	c.rows = resize(c.rows, len(c.runners))
	c.order = resize(c.order, len(c.runners))
	table := resize(c.table, len(c.runners)*len(c.nodes))
	clear(table)
	orders, odd := resize(c.orders, len(table))[:0], c.odd[:0]
	c.misfits = c.misfits[:0]
	c.maxObj = c.fixed
	for i, g := range c.runners {
		cur, ok := c.nodeIdx[g.curLoc]
		if !ok {
			cur = -1
		}
		// A runner that misfits some node lists the nodes it fits in
		// misfits, from the first misfit on.
		allowed, start := every, len(c.misfits)
		for j, n := range c.nodes {
			switch fits := g.vm.Demand.Fits(n.Capacity); {
			case !fits && len(allowed) == len(every): // the first misfit
				c.misfits = append(c.misfits, every[:j]...)
				allowed = c.misfits[start:]
			case fits && len(allowed) < len(every):
				c.misfits = append(c.misfits, j)
				allowed = c.misfits[start:]
			}
		}
		if o.PinRunning && g.cur == vjob.Running && cur >= 0 {
			allowed = every[cur : cur+1 : cur+1]
		}
		if len(allowed) == 0 {
			return nil, fmt.Errorf("%w: %s fits on no node", ErrNoViableConfiguration, g.vm.Name)
		}
		c.allowed[i], c.prefs[i], c.hints[i] = allowed, cur, -1
		if o.WarmStart != nil {
			if idx, ok := c.nodeIdx[o.WarmStart.HostOf(g.vm.Name)]; ok {
				c.hints[i] = idx
			}
		}

		// Price every allowed node and order them cheapest first, ties
		// by index: most cost the runner's base price, away from its
		// current node and free now, and only the others are sorted.
		row := table[i*len(c.nodes) : (i+1)*len(c.nodes)]
		base := int32(g.runContribution(false))
		odd = odd[:0]
		for _, j := range allowed {
			row[j] = base
			if j == cur {
				row[j] = int32(g.runContribution(true))
			}
			if (j != cur || g.cur != vjob.Running) && release[j] > 0 && !g.vm.Demand.Fits(free[j]) {
				row[j] += int32(release[j])
			}
			if row[j] != base {
				odd = append(odd, int32(j))
			}
		}
		slices.SortStableFunc(odd, func(a, b int32) int { return cmp.Compare(row[a], row[b]) })
		cheap := 0
		for cheap < len(odd) && row[odd[cheap]] < base {
			cheap++
		}
		start = len(orders)
		orders = append(orders, odd[:cheap]...)
		for _, j := range allowed {
			if row[j] == base {
				orders = append(orders, int32(j))
			}
		}
		orders = append(orders, odd[cheap:]...)
		c.rows[i], c.order[i] = row, orders[start:len(orders):len(orders)]
		c.maxObj += int(row[orders[len(orders)-1]])
	}
	c.table, c.orders, c.odd = table, orders, odd
	return c, nil
}

// searchModel is one solver instance over a compiled problem.
type searchModel struct {
	s    *cp.Solver
	vars []*cp.IntVar
	obj  *cp.IntVar
	opts cp.Options
}

// scratch is the storage one model is built in — its solver, its
// compiled problem and buildModel's buffers — and its candidates are
// planned in, or a carve. Every portfolio worker owns one; a worker of
// solveSlices' pool reuses its own from slice to slice: the solver is
// Reset, the rest refilled. A finished solve or carve leaves it idle.
type scratch struct {
	s                 *cp.Solver
	c                 compiled
	vars              []*cp.IntVar
	weights, capacity [resources.MaxKinds][]int // per dimension's Packing
	byName            map[string]*cp.IntVar
	ff                packing.FirstFit // the FFD seed's, and its runners
	runners           []*vjob.VM
	ws                plan.Workspace
	free              []*Result // candidates no one holds: storage for the next
	carve             carver
}

// idle holds the scratches of finished solves, the last released on
// top, for the next solve, portfolio worker or FFD plan to build in: at
// most GOMAXPROCS + 1, and unlike a sync.Pool's never dropped at a GC,
// so what a solve allocates does not hang on GC timing.
var idle struct {
	sync.Mutex
	stack []*scratch
}

// takeScratch returns the scratch released last, or a new one.
func takeScratch() *scratch {
	idle.Lock()
	defer idle.Unlock()
	if n := len(idle.stack); n > 0 {
		sc := idle.stack[n-1]
		idle.stack[n-1], idle.stack = nil, idle.stack[:n-1]
		return sc
	}
	return new(scratch)
}

// release leaves sc, which no one builds in any more, to takeScratch.
func (sc *scratch) release() {
	idle.Lock()
	if len(idle.stack) <= runtime.GOMAXPROCS(0) {
		idle.stack = append(idle.stack, sc)
	}
	idle.Unlock()
}

// buildModel instantiates the §4.3 model in sc's storage, with the
// paper's search: first-fail on the variables, the warm hint and then
// the current host first on the values. Each portfolio worker gets its
// own build, so no solver state is shared.
func buildModel(p Problem, c *compiled, sc *scratch) (*searchModel, error) {
	if sc.s == nil {
		sc.s = cp.NewSolver()
	} else {
		sc.s.Reset()
	}
	s := sc.s
	vars := resize(sc.vars, len(c.runners))
	sc.vars = vars
	for i, g := range c.runners {
		vars[i] = s.NewEnumVar(g.vm.Name, c.allowed[i])
		vars[i].SetPreferred(c.prefs[i])
		vars[i].SetHint(c.hints[i])
	}

	// One multi-knapsack viability constraint per ACTIVE dimension
	// (§4.3, generalized): dimensions no runner demands never build a
	// Packing instance, so the 2-D instances of the paper solve with
	// exactly the cpu and memory propagators they always had.
	if len(c.runners) > 0 {
		for _, k := range resources.Kinds() {
			if !c.active[k] {
				continue
			}
			w, capacity := resize(sc.weights[k], len(c.runners)), resize(sc.capacity[k], len(c.nodes))
			sc.weights[k], sc.capacity[k] = w, capacity
			for i, g := range c.runners {
				w[i] = g.vm.Demand.Get(k)
			}
			for j, n := range c.nodes {
				capacity[j] = n.Capacity.Get(k)
			}
			s.Post(&cp.Packing{Name: k.String(), Items: vars, Weights: w, Capacity: capacity})
		}
	}

	sc.byName = emptied(sc.byName, len(c.runners))
	for i, g := range c.runners {
		sc.byName[g.vm.Name] = vars[i]
	}
	for _, rule := range p.Rules {
		if err := rule.Apply(s, sc.byName, c.nodeIdx); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoViableConfiguration, err)
		}
	}

	// The dynamic cost estimation of §4.3: the fixed costs plus each
	// VM's cheapest contribution left bound the objective from below.
	obj := s.NewIntVar("cost", 0, c.maxObj)
	s.Post(&cp.TableSum{Obj: obj, Items: vars, Fixed: c.fixed, Rows: c.rows, Orders: c.order})

	opts := cp.Options{Vars: vars, FirstFail: true, PreferValue: true}
	return &searchModel{s: s, vars: vars, obj: obj, opts: opts}, nil
}

// Solve runs the optimization. It returns ErrNoViableConfiguration
// when even one solution cannot be found (within the timeout).
func (o Optimizer) Solve(p Problem) (*Result, error) {
	return o.SolveContext(context.Background(), p)
}

// SolveContext runs the optimization under ctx: canceling it stops the
// search and returns the best result found so far (or
// ErrNoViableConfiguration when there is none yet), exactly like the
// Timeout. The branch-and-bound races a portfolio of Workers diverse
// workers that share the incumbent bound; with Partitions != 1 the
// problem may first be decomposed into node-disjoint sub-problems
// solved on a pool of workers.
func (o Optimizer) SolveContext(ctx context.Context, p Problem) (*Result, error) {
	start := time.Now()
	ctx, cancel := o.budget(ctx)
	defer cancel()
	res, err := o.solvePartitioned(ctx, p)
	if err != nil {
		// An undecomposable problem, or a partition without a plan even
		// once rejoined, goes to the monolithic model under whatever budget
		// remains: even with an expired deadline the FFD warm start gives
		// it a plan to return, so asking for partitioning never yields
		// less than the monolithic path would.
		sc := takeScratch()
		res, err = o.solveMonolithic(ctx, p, o.workers(), sc)
		sc.release()
	}
	if err == nil {
		res.Wall = time.Since(start)
	}
	return res, err
}

// budget arms the Timeout on ctx.
func (o Optimizer) budget(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.Timeout == 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, o.Timeout)
}

// solvePartitioned solves the problem slice by slice, rejoining any
// slice without a plan with a solved neighbour, then checks what no
// slice can see: the whole destination's viability and rules.
func (o Optimizer) solvePartitioned(ctx context.Context, p Problem) (*Result, error) {
	parts, err := (Partitioner{Parts: o.Partitions}).Split(p)
	if err != nil || len(parts) < 2 {
		return nil, errMonolithic
	}
	results, err := o.solveSlices(ctx, parts)
	if err != nil {
		if parts, results, err = o.rejoin(ctx, p, parts, results); err != nil {
			return nil, err
		}
	}
	res, err := mergeSlices(p.Src, parts, results)
	if err != nil {
		return nil, err
	}
	if !res.Dst.Viable() || !rulesHold(p.Rules, res.Dst) {
		return nil, errors.New("core: merged configuration is not viable or breaks a rule")
	}
	return res, nil
}

// rejoin repairs a decomposition in which some slices found no plan:
// each in turn is extracted from p.Src together with the solved slice
// whose destination has the most room left — both target maps, p.Rules
// rescoped to the pair — and solved as one slice in their place. Every
// other slice keeps its result.
func (o Optimizer) rejoin(ctx context.Context, p Problem, parts []Problem, results []*Result) ([]Problem, []*Result, error) {
	room := func(r *Result) float64 { // the least share of a resource left free
		var capacity, used resources.Vector
		for _, n := range r.Dst.Nodes() {
			capacity, used = capacity.Add(n.Capacity), used.Add(r.Dst.Used(n.Name))
		}
		return 1 - used.DominantShare(capacity)
	}
	for i := slices.Index(results, nil); i >= 0; i = slices.Index(results, nil) {
		best := -1
		for j, r := range results {
			if r != nil && (best < 0 || room(r) > room(results[best])) {
				best = j
			}
		}
		if best < 0 {
			return nil, nil, errors.New("core: no solved slice to rejoin")
		}
		nodes, vms := map[string]bool{}, map[string]bool{}
		for _, sub := range []*vjob.Configuration{parts[i].Src, parts[best].Src} {
			for _, n := range sub.Nodes() {
				nodes[n.Name] = true
			}
			for _, v := range sub.VMs() {
				vms[v.Name] = true
			}
		}
		src, err := p.Src.Extract(slices.Sorted(maps.Keys(nodes)), slices.Sorted(maps.Keys(vms)))
		if err != nil {
			return nil, nil, err
		}
		pair := Problem{Src: src, Target: maps.Clone(parts[i].Target)}
		maps.Copy(pair.Target, parts[best].Target)
		for _, rule := range p.Rules {
			if rr := rule.Rescope(vms, nodes); rr != nil {
				pair.Rules = append(pair.Rules, rr)
			}
		}
		sc := takeScratch()
		res, err := o.solveMonolithic(ctx, pair, o.workers(), sc)
		sc.release()
		if err != nil {
			return nil, nil, err
		}
		parts[best], results[best] = pair, res
		parts, results = slices.Delete(parts, i, i+1), slices.Delete(results, i, i+1)
	}
	return parts, results, nil
}

// solveMonolithic runs the single-model optimization: compile, FFD warm
// start, then the portfolio race. It compiles, and builds the first
// worker's model, in sc's storage. A panic in it (a rule's propagator,
// say) is its error, so it fails this solve or slice, not the process.
func (o Optimizer) solveMonolithic(ctx context.Context, p Problem, workers int, sc *scratch) (_ *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: solve panicked: %v", r)
		}
	}()
	start := time.Now()
	c, err := o.compile(p, &sc.c)
	if err != nil {
		return nil, err
	}
	compiledAt := time.Now()

	// Warm start: the FFD heuristic's plan seeds the incumbent, so the
	// optimizer never returns anything worse than the baseline and the
	// branch-and-bound starts with a meaningful ceiling. A previous
	// incumbent assignment (WarmStart), when still viable here, races
	// the FFD seed: on incremental re-solves it is usually a near-no-op
	// plan that undercuts FFD's from-scratch packing by far.
	seed, seedLabel := o.ffdSeed(p, c, sc), "ffd-seed"
	warmHit := false
	if ws := o.warmSeed(p, c, sc); ws != nil {
		warmHit = true
		if seed == nil || ws.Cost < seed.Cost {
			seed, ws, seedLabel = ws, seed, "warm-seed"
		}
		if ws != nil {
			sc.free = append(sc.free, ws) // the seed that lost
		}
	}

	seededAt := time.Now()

	if len(c.runners) == 0 {
		workers = 1 // nothing to branch on: every worker runs the same search
	}
	res, err := o.solvePortfolio(ctx, p, c, seed, seedLabel, workers, sc)
	if err != nil {
		return nil, err
	}
	res.WarmHit = warmHit
	res.Phases.Compile, res.Phases.Seeds = compiledAt.Sub(start), seededAt.Sub(compiledAt)
	res.Wall = time.Since(start)
	return res, nil
}

// solveSlices optimizes node-disjoint sub-problems — every part of a
// decomposition, or the dirty slices of the loop's carve — each through
// the usual portfolio machinery, the portfolio budget spread across
// them, all under the caller's deadline. A pool of
// min(len(parts), GOMAXPROCS) workers takes the parts in order, each
// worker building its slices' models one after another in one scratch.
// The first worker is the caller's goroutine and takes the first part,
// so a set of one is that part's monolithic search and spawns nothing.
// A part without a plan fails the set (first error in part order);
// results come back regardless.
func (o Optimizer) solveSlices(ctx context.Context, parts []Problem) ([]*Result, error) {
	results := make([]*Result, len(parts))
	errs := make([]error, len(parts))
	w, width := o.workers(), min(len(parts), runtime.GOMAXPROCS(0))
	var next atomic.Int64 // the first part no worker has taken
	work := func(i int) {
		sc := takeScratch()
		defer sc.release()
		for ; i < len(parts); i = int(next.Add(1)) - 1 {
			wi := w / len(parts)
			if i < w%len(parts) {
				wi++
			}
			sctx, cancel := deadlineShare(ctx, width, len(parts)-i)
			results[i], errs[i] = o.solveMonolithic(sctx, parts[i], max(wi, 1), sc)
			cancel()
		}
	}
	next.Store(1) // the caller's worker holds part 0
	var wg sync.WaitGroup
	for range width - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(int(next.Add(1)) - 1)
		}()
	}
	if width > 0 {
		work(0)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("core: slice %d/%d: %w", i+1, len(parts), err)
		}
	}
	return results, nil
}

// deadlineShare cuts ctx, for a slice that a pool of width workers
// starts with left slices (itself included) not yet started, to
// now + (deadline − now) × width / left, capped by ctx's deadline: the
// batch still costs one deadline, the slices started last are not
// starved by those before them, and what a slice that ends early
// leaves goes to the slices after it. Without a deadline it is ctx.
func deadlineShare(ctx context.Context, width, left int) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok || left <= width {
		return ctx, func() {}
	}
	now := time.Now()
	return context.WithDeadline(ctx, now.Add(deadline.Sub(now)/time.Duration(left)*time.Duration(width)))
}

// mergeSlices folds the results of solveSlices into one: destinations
// rebased onto a copy of src, plans merged, telemetry aggregated.
func mergeSlices(src *vjob.Configuration, parts []Problem, results []*Result) (*Result, error) {
	dst := src.Clone()
	plans := make([]*plan.Plan, len(parts))
	agg := &Result{Optimal: true, Partitions: len(parts)}
	winCount := make(map[string]int)
	outcomes := make(map[string]WorkerOutcome)
	for i, r := range results {
		if err := dst.Rebase(parts[i].Src, r.Dst); err != nil {
			return nil, err
		}
		plans[i] = r.Plan
		agg.LowerBound += r.LowerBound
		agg.Solutions += r.Solutions
		agg.Nodes += r.Nodes
		agg.Fails += r.Fails
		agg.Optimal = agg.Optimal && r.Optimal
		agg.WarmHit = agg.WarmHit || r.WarmHit
		agg.Phases.add(r.Phases)
		if r.Winner != "" {
			winCount[r.Winner]++
		}
		for _, w := range r.Outcomes {
			m := outcomes[w.Strategy]
			m.Strategy = w.Strategy
			m.Nodes += w.Nodes
			m.Backtracks += w.Backtracks
			m.Improvements += w.Improvements
			outcomes[w.Strategy] = m
		}
	}
	// The aggregate winner is the most frequent per-partition winner
	// (label order breaks ties); outcomes merge by label.
	for s, n := range winCount {
		if c := winCount[agg.Winner]; agg.Winner == "" || n > c || (n == c && s < agg.Winner) {
			agg.Winner = s
		}
	}
	for _, w := range outcomes {
		agg.Outcomes = append(agg.Outcomes, w)
	}
	sort.Slice(agg.Outcomes, func(i, j int) bool { return agg.Outcomes[i].Strategy < agg.Outcomes[j].Strategy })
	merged, err := plan.Merge(src, plans...)
	if err != nil {
		return nil, err
	}
	agg.Dst = dst
	agg.Plan = merged
	agg.Cost = merged.Cost()
	return agg, nil
}

// portfolioState is the shared incumbent of a portfolio run: the best
// result under a mutex, the bound under an atomic (read by every
// worker's inner search loop), and the aggregate run flags.
type portfolioState struct {
	bound  *cp.Incumbent
	start  time.Time
	cancel context.CancelFunc // stops every worker

	mu           sync.Mutex
	best         *Result
	winner       string // the worker that produced best (the seed's label until beaten)
	solutions    int
	proven       bool
	err          error // first non-interruption worker error
	nodes, fails int64 // aggregated search counters
	phases       Phases
	outcomes     []WorkerOutcome
	traj         []BoundPoint
}

// offer publishes a planned candidate; the caller then tightens the
// bound with the returned incumbent cost. It reports whether the
// offer improved the incumbent, crediting the offering worker and
// extending the bound trajectory when it did. The displaced incumbent,
// or r when it did not improve, goes onto free, the offerer's list.
func (sh *portfolioState) offer(r *Result, label string, free *[]*Result) (int, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.solutions++
	improved := sh.best == nil || r.Cost < sh.best.Cost
	if improved {
		r, sh.best = sh.best, r
		sh.winner = label
		sh.traj = append(sh.traj, BoundPoint{Seconds: time.Since(sh.start).Seconds(), Cost: sh.best.Cost})
	}
	if r != nil {
		*free = append(*free, r)
	}
	return sh.best.Cost, improved
}

// settle records a worker's definitive answer — a proof that nothing
// lies below the bound (err == nil), or the first model error — and
// stops the siblings.
func (sh *portfolioState) settle(err error) {
	sh.mu.Lock()
	if err == nil {
		sh.proven = true
	} else if sh.err == nil {
		sh.err = err
	}
	sh.mu.Unlock()
	sh.cancel()
}

// solvePortfolio races the given number of workers, each over a model
// of its own in storage of its own: worker k runs the paper's search
// shuffled by seed k. Every worker restarts against the shared incumbent bound; the
// first to exhaust the space below the incumbent proves optimality
// (with respect to the bound) and cancels the rest. Worker 0, the
// unshuffled search, runs on the caller's goroutine in sc's storage, so
// a portfolio of one is the sequential search: no goroutine, nobody
// else moving the bound.
func (o Optimizer) solvePortfolio(ctx context.Context, p Problem, c *compiled, seed *Result, seedLabel string, workers int, sc *scratch) (*Result, error) {
	bound := c.maxObj
	if seed != nil && seed.Cost-1 < bound {
		bound = seed.Cost - 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sh := &portfolioState{bound: cp.NewIncumbent(bound), start: time.Now(), cancel: cancel, best: seed, winner: seedLabel}
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		// Each worker builds its own model inside its goroutine: model
		// construction overlaps across cores instead of eating into
		// the solve deadline serially.
		go func() {
			defer wg.Done()
			sc := takeScratch()
			o.runPortfolioWorker(ctx, p, c, k, sh, sc)
			sc.release()
		}()
	}
	o.runPortfolioWorker(ctx, p, c, 0, sh, sc)
	wg.Wait()

	if sh.err != nil {
		return nil, sh.err
	}
	if sh.best == nil {
		if sh.proven {
			return nil, ErrNoViableConfiguration
		}
		return nil, fmt.Errorf("%w: timeout before first solution", ErrNoViableConfiguration)
	}
	best := sh.best
	best.Optimal = sh.proven
	best.Solutions = sh.solutions
	best.Nodes, best.Fails = sh.nodes, sh.fails
	best.Winner = sh.winner
	sort.Slice(sh.outcomes, func(i, j int) bool { return sh.outcomes[i].Strategy < sh.outcomes[j].Strategy })
	best.Outcomes = sh.outcomes
	best.Trajectory = sh.traj
	best.Phases = sh.phases
	return best, nil
}

// runPortfolioWorker runs worker k: one Minimize over a model of its
// own, built in sc's storage and shuffled by seed k, labeled "base" for
// k = 0 and "shuffle#k" otherwise. It scores each solution by the true
// §4.2 plan cost, which only this package can evaluate: decode,
// Builder.Plan, offer, then tighten the shared bound, which the next
// restart cuts at. A definitive answer is settled, so sibling workers
// stop immediately; an interruption is not.
func (o Optimizer) runPortfolioWorker(ctx context.Context, p Problem, c *compiled, k int, sh *portfolioState, sc *scratch) {
	label := "base"
	if k > 0 {
		label = fmt.Sprintf("shuffle#%d", k)
	}
	defer func() { // a panic settles the solve with itself as the error
		if r := recover(); r != nil {
			sh.settle(fmt.Errorf("core: worker %s panicked: %v", label, r))
		}
	}()
	t := time.Now()
	m, err := buildModel(p, c, sc)
	if err != nil {
		sh.settle(err)
		return
	}
	ph := Phases{Build: time.Since(t)}
	improved := 0
	defer func() {
		n, f, _, _ := m.s.Stats()
		sh.mu.Lock()
		sh.nodes += n
		sh.fails += f
		sh.phases.add(ph)
		sh.outcomes = append(sh.outcomes, WorkerOutcome{Strategy: label, Nodes: n, Backtracks: f, Improvements: improved})
		sh.mu.Unlock()
	}()
	opts := m.opts
	opts.Ctx, opts.SharedBound, opts.ShuffleSeed = ctx, sh.bound, int64(k)
	opts.OnSolution = func(sol cp.Solution) int {
		t := time.Now()
		// A better configuration has a lower action-cost sum than this
		// objective, and a sum (an admissible lower bound of its plan
		// cost) below the incumbent's cost.
		bound := sol.Objective - 1
		res := o.candidate(p, sc, func(dst *vjob.Configuration) (*vjob.Configuration, error) {
			return decode(dst, p.Src, c.goals, c.runners, func(i int) string { return c.nodes[sol.Value(i)].Name })
		})
		if res != nil {
			res.LowerBound = sol.Objective
			incumbent, better := sh.offer(res, label, &sc.free)
			if better {
				improved++
			}
			bound = min(bound, incumbent-1)
		}
		sh.bound.Tighten(bound)
		ph.Plan += time.Since(t)
		return sh.bound.Bound()
	}
	t = time.Now()
	_, err = m.s.Minimize(m.obj, opts)
	ph.Search += time.Since(t) - ph.Plan
	switch {
	case cp.Stopped(err):
	case err == nil || errors.Is(err, cp.ErrFailed):
		sh.settle(nil) // cost floor reached or search space exhausted
	default:
		sh.settle(err)
	}
}

// ffdSeed is the FFD heuristic's destination as a candidate of sc's.
func (o Optimizer) ffdSeed(p Problem, c *compiled, sc *scratch) *Result {
	return o.candidate(p, sc, func(dst *vjob.Configuration) (*vjob.Configuration, error) {
		return ffdDestination(dst, p.Src, c.nodes, c.goals, sc)
	})
}

// warmSeed decodes the WarmStart assignment into a Result for the
// current problem: every to-be-running VM goes back to its old host.
// It returns nil when the old assignment no longer applies — a VM
// that was not running in the warm configuration, a host that left,
// a viability or rule violation — and the caller falls back to the
// FFD seed alone.
func (o Optimizer) warmSeed(p Problem, c *compiled, sc *scratch) *Result {
	if o.WarmStart == nil || slices.Contains(c.hints, -1) {
		return nil
	}
	return o.candidate(p, sc, func(dst *vjob.Configuration) (*vjob.Configuration, error) {
		return decode(dst, p.Src, c.goals, c.runners, func(i int) string { return c.nodes[c.hints[i]].Name })
	})
}

// decode builds the destination configuration of an assignment into
// dst (nil: a new one): a copy of src in which every VM that must not
// run reaches its goal — asleep on its current host, terminated, or
// still waiting — and the i-th goal of runners that wants Running runs
// on the node host(i) names. Every seed and solution goes through it.
func decode(dst, src *vjob.Configuration, goals, runners []vmGoal, host func(i int) string) (*vjob.Configuration, error) {
	dst = src.CloneInto(dst)
	for _, g := range goals {
		switch {
		case g.want == vjob.Sleeping && g.cur == vjob.Running:
			if err := dst.SetSleeping(g.vm.Name, g.curLoc); err != nil {
				return nil, err
			}
		case g.want == vjob.Terminated:
			dst.RemoveVM(g.vm.Name)
		}
	}
	for i, g := range runners {
		if g.want != vjob.Running {
			continue
		}
		if err := dst.SetRunning(g.vm.Name, host(i)); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// candidate decodes with fill into a candidate off sc's free list (or
// a new one) and plans it in sc's workspace; it returns nil, the
// candidate back on the list, when fill fails, the destination is not
// viable, breaks a placement rule, or migrates a running VM under
// PinRunning (the FFD heuristic knows nothing about pinning), or the
// graph cannot be planned. A candidate has one holder at a time.
func (o Optimizer) candidate(p Problem, sc *scratch, fill func(dst *vjob.Configuration) (*vjob.Configuration, error)) *Result {
	var r *Result
	if n := len(sc.free); n > 0 {
		r, sc.free = sc.free[n-1], sc.free[:n-1]
		*r = Result{Dst: r.Dst, Plan: r.Plan}
	} else {
		r = new(Result)
	}
	dst, err := fill(r.Dst)
	if err == nil {
		r.Dst = dst
	}
	if err == nil && dst.Viable() && rulesHold(p.Rules, dst) && o.respectsPins(p.Src, dst) {
		if pl, err := sc.ws.Plan(o.Builder, p.Src, dst, r.Plan); err == nil {
			r.Plan, r.Cost = pl, pl.Cost()
			return r
		}
	}
	sc.free = append(sc.free, r)
	return nil
}

// respectsPins reports whether dst keeps every VM running in src that
// still runs on its host when PinRunning is in force.
func (o Optimizer) respectsPins(src, dst *vjob.Configuration) bool {
	if !o.PinRunning {
		return true
	}
	for _, v := range src.VMs() {
		if src.StateOf(v.Name) == vjob.Running && dst.StateOf(v.Name) == vjob.Running &&
			dst.HostOf(v.Name) != src.HostOf(v.Name) {
			return false
		}
	}
	return true
}

// rulesHold reports whether every placement rule accepts the
// configuration.
func rulesHold(rules []PlacementRule, cfg *vjob.Configuration) bool {
	for _, r := range rules {
		if r.Check(cfg) != nil {
			return false
		}
	}
	return true
}
