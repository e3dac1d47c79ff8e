package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cwcs/internal/cp"
	"cwcs/internal/resources"
	"cwcs/internal/sched"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// refCostBound is the cost bound as it ran before the contribution
// table: every value of every domain priced through the cost model,
// twice per run. Kept as the reference the table form is compared
// with; only the cost model's node argument changed since, from a name
// to compile's node index.
func refCostBound(model *costModel, runners []vmGoal, vars []*cp.IntVar, obj *cp.IntVar, fixed int) cp.Constraint {
	watched := append([]*cp.IntVar{obj}, vars...)
	return &cp.FuncConstraint{
		On: watched,
		Run: func(s *cp.Solver) error {
			lb := fixed
			mins := make([]int, len(vars))
			for i, v := range vars {
				if v.Bound() {
					mins[i] = model.contribution(runners[i], v.Value())
				} else {
					min := -1
					for _, val := range v.Values() {
						c := model.contribution(runners[i], val)
						if min < 0 || c < min {
							min = c
						}
					}
					mins[i] = min
				}
				lb += mins[i]
			}
			if err := s.RemoveBelow(obj, lb); err != nil {
				return err
			}
			slack := obj.Max() - lb
			for i, v := range vars {
				if v.Bound() {
					continue
				}
				for _, val := range v.Values() {
					if model.contribution(runners[i], val)-mins[i] > slack {
						if err := s.RemoveValue(v, val); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
	}
}

// costBound is the dynamic cost estimation of §4.3 as it ran before
// cp.TableSum learned which variables changed, kept verbatim as the
// reference the table sum is compared with: it keeps the
// objective's lower bound equal to the fixed costs plus, per VM,
// either the exact contribution of its assignment or the cheapest
// contribution still in its domain; and it prunes node choices that
// would push the bound past the incumbent. One run costs about one
// step per variable: the cheapest value left is the first of the
// variable's cheapest-first order still in its domain — found afresh
// each run, so nothing is cached that a backtrack would have to undo —
// and the values to prune are at the order's expensive end.
func (c *compiled) costBound(vars []*cp.IntVar, obj *cp.IntVar) cp.Constraint {
	mins := make([]int, len(vars))
	return &cp.FuncConstraint{
		On: append([]*cp.IntVar{obj}, vars...),
		Run: func(s *cp.Solver) error {
			lb := c.fixed
			for i, v := range vars {
				row := c.rows[i]
				if v.Bound() {
					mins[i] = int(row[v.Min()])
				} else {
					for _, val := range c.order[i] {
						if v.Contains(int(val)) {
							mins[i] = int(row[val])
							break
						}
					}
				}
				lb += mins[i]
			}
			if err := s.RemoveBelow(obj, lb); err != nil {
				return err
			}
			slack := obj.Max() - lb
			for i, v := range vars {
				if v.Bound() {
					continue
				}
				row, order := c.rows[i], c.order[i]
				for k := len(order) - 1; k >= 0 && int(row[order[k]])-mins[i] > slack; k-- {
					if err := s.RemoveValue(v, int(order[k])); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}

// tableProblem is a seeded cluster filled tightly enough that hosts
// differ in price — staying, migrating, local and remote resumes, and
// the wait for a release where a VM does not fit yet. With extra, nodes
// and VMs also carry network and disk dimensions (4-D).
func tableProblem(seed int64, extra bool) Problem {
	rng := rand.New(rand.NewSource(seed))
	cfg := vjob.NewConfiguration()
	for i := 0; i < 8+rng.Intn(5); i++ {
		capacity := resources.New(2+rng.Intn(3), 2048*(1+rng.Intn(3)))
		if extra {
			capacity.Set(resources.NetBW, 1000)
			capacity.Set(resources.DiskIO, 400+rng.Intn(400))
		}
		cfg.AddNode(vjob.NewNodeRes(fmt.Sprintf("n%02d", i), capacity))
	}
	target := map[string]vjob.State{}
	for j := 0; j < 10+rng.Intn(6); j++ {
		job := fmt.Sprintf("j%d", j)
		state := []vjob.State{vjob.Running, vjob.Running, vjob.Sleeping, vjob.Waiting}[rng.Intn(4)]
		placed := true // a running job whose VMs all found room
		for k := 0; k < 1+rng.Intn(3); k++ {
			demand := resources.New(rng.Intn(2), 256*(1+rng.Intn(8)))
			if extra {
				demand.Set(resources.NetBW, rng.Intn(400))
				demand.Set(resources.DiskIO, rng.Intn(200))
			}
			v := vjob.NewVMRes(fmt.Sprintf("%s-%d", job, k), job, demand)
			cfg.AddVM(v)
			nodes := cfg.Nodes()
			host := nodes[rng.Intn(len(nodes))].Name
			switch {
			case state == vjob.Sleeping:
				_ = cfg.SetSleeping(v.Name, host)
			case state == vjob.Running && cfg.Fits(v, host):
				_ = cfg.SetRunning(v.Name, host)
			default:
				placed = false
			}
		}
		target[job] = vjob.Running
		if state == vjob.Running && placed {
			target[job] = []vjob.State{vjob.Running, vjob.Running, vjob.Sleeping, vjob.Terminated}[rng.Intn(4)]
		}
	}
	return Problem{Src: cfg, Target: target}
}

// TestCostTableMatchesModel: on seeded 2-D and 4-D problems every
// table entry is what the cost model answers, every order holds the
// runner's allowed nodes cheapest first with index ties — and from the
// same random domains the bound on the table leaves exactly what the
// closure it replaced leaves, or fails with it.
func TestCostTableMatchesModel(t *testing.T) {
	pruned, failed, runs := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		p := tableProblem(seed, seed%2 == 1)
		c, err := Optimizer{}.compile(p, new(compiled))
		if errors.Is(err, ErrNoViableConfiguration) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		model := newCostModel(p.Src, c.goals, c.nodes)
		for i, g := range c.runners {
			row, order := c.rows[i], c.order[i]
			for _, j := range c.allowed[i] {
				if want := model.contribution(g, j); int(row[j]) != want {
					t.Fatalf("seed %d: %s on %s is %d in the table, %d in the model", seed, g.vm.Name, c.nodes[j].Name, row[j], want)
				}
			}
			for k := 1; k < len(order); k++ {
				a, b := order[k-1], order[k]
				if row[a] > row[b] || (row[a] == row[b] && a >= b) {
					t.Fatalf("seed %d: %s: order %v over costs %v is not cheapest first with index ties", seed, g.vm.Name, order, row)
				}
			}
			if sorted := slices.Sorted(slices.Values(order)); !sameValues(sorted, c.allowed[i]) {
				t.Fatalf("seed %d: %s: order %v is not its allowed nodes %v", seed, g.vm.Name, order, c.allowed[i])
			}
		}

		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 25; round++ {
			// One random state, built twice: each runner keeps a random
			// part of its domain, the objective a random ceiling.
			keep := make([][]int, len(c.runners))
			for i, allowed := range c.allowed {
				for _, j := range allowed {
					if rng.Intn(3) > 0 {
						keep[i] = append(keep[i], j)
					}
				}
				if len(keep[i]) == 0 || rng.Intn(4) == 0 {
					keep[i] = []int{allowed[rng.Intn(len(allowed))]}
				}
			}
			ceiling := c.fixed + rng.Intn(c.maxObj-c.fixed+1)
			// run returns the runners' variables and their domains at
			// the fixpoint.
			run := func(bound func(vars []*cp.IntVar, obj *cp.IntVar) cp.Constraint) ([]*cp.IntVar, [][]int, error) {
				s := cp.NewSolver()
				vars := make([]*cp.IntVar, len(c.runners))
				for i, g := range c.runners {
					vars[i] = s.NewEnumVar(g.vm.Name, keep[i])
				}
				obj := s.NewIntVar("cost", 0, ceiling)
				s.Post(bound(vars, obj))
				doms := make([][]int, len(vars))
				err := toFixpoint(s, func() {
					for i, v := range vars {
						doms[i] = v.Values()
					}
				})
				return vars, doms, err
			}
			vars, doms, err := run(c.costBound)
			_, refDoms, refErr := run(func(vars []*cp.IntVar, obj *cp.IntVar) cp.Constraint {
				return refCostBound(model, c.runners, vars, obj, c.fixed)
			})
			runs++
			if errors.Is(err, cp.ErrFailed) != errors.Is(refErr, cp.ErrFailed) {
				t.Fatalf("seed %d round %d: verdict %v, reference %v", seed, round, err, refErr)
			}
			if err != nil {
				failed++
				continue
			}
			for i, got := range doms {
				if want := refDoms[i]; !slices.Equal(got, want) {
					t.Fatalf("seed %d round %d: %s = %v, reference %v", seed, round, vars[i].Name(), got, want)
				}
				pruned += len(keep[i]) - len(got)
			}
		}
	}
	if pruned == 0 || failed == 0 || failed == runs {
		t.Fatalf("%d runs, %d failed, %d values pruned: the generator no longer exercises the bound", runs, failed, pruned)
	}
}

// toFixpoint runs s's propagation queue until it is empty and calls
// at with the domains there: a search whose one decision variable is
// bound already has nothing else to do, and a one-value objective makes
// it Minimize's only solution. Minimize restores the root before it
// returns, so at is where the fixpoint can be read.
func toFixpoint(s *cp.Solver, at func()) error {
	_, err := s.Minimize(s.NewIntVar("one", 0, 0), cp.Options{
		Vars:       []*cp.IntVar{s.NewEnumVar("decided", []int{0})},
		OnSolution: func(cp.Solution) int { at(); return -1 },
	})
	return err
}

// searchBudget is a placement rule that places nothing: it posts, on
// its VM's variable, a propagator that answers cp.ErrCanceled once the
// solver has opened Nodes search nodes. It is the benchmark's node
// budget (bench/nodebudget.go), restated here so that a change to cp
// or core that breaks what it rides on fails in this package. Like the
// benchmark's, its scope is its one VM, so a partitioned solve hands
// every slice model the whole budget. The scope is stored, not built
// per call, so that a carve's allocation budget counts the carve alone.
type searchBudget struct {
	scope []string // the one VM
	Nodes int64
}

// budgetOn is the rule that budgets the search on vm's variable.
func budgetOn(vm string, nodes int64) searchBudget {
	return searchBudget{scope: []string{vm}, Nodes: nodes}
}

func (r searchBudget) Apply(s *cp.Solver, vars map[string]*cp.IntVar, _ map[string]int) error {
	if v, ok := vars[r.scope[0]]; ok {
		s.Post(&cp.FuncConstraint{On: []*cp.IntVar{v}, Run: func(s *cp.Solver) error {
			if nodes, _, _, _ := s.Stats(); nodes >= r.Nodes {
				return cp.ErrCanceled
			}
			return nil
		}})
	}
	return nil
}

func (r searchBudget) Check(*vjob.Configuration) error { return nil }

func (r searchBudget) ScopeVMs() []string  { return r.scope }
func (r searchBudget) BindNodes() []string { return nil }

func (r searchBudget) Rescope(vms, _ map[string]bool) PlacementRule {
	if !vms[r.scope[0]] {
		return nil
	}
	return r
}

// budgetedProblem is the benchmark's solve instance: nodes nodes in the
// paper's §5.1 mix (100 for solve_mono, 1000 for solve_sliced), 1.5 VMs
// per node, the states sched.Consolidation asks for, and one
// searchBudget per VM.
func budgetedProblem(seed int64, nodes int, budget int64) Problem {
	g := workload.GenerateConfiguration(rand.New(rand.NewSource(seed)), workload.GenerateOptions{
		Nodes: nodes, NodeCPU: 2, NodeMemory: 4096, VMs: nodes * 3 / 2,
	})
	p := Problem{Src: g.Cfg, Target: sched.Consolidation{}.Decide(g.Cfg, g.Jobs)}
	for _, v := range g.Cfg.VMs() {
		p.Rules = append(p.Rules, budgetOn(v.Name, budget))
	}
	return p
}

// TestPropagatorCancelsSearchAtNodeBudget: a propagator on one
// variable runs after every branch on it, and its cp.ErrCanceled
// reaches the optimizer as an interruption — the search stops on node
// N (or N+1 when node N is a leaf, which binds nothing), and the
// incumbent comes back without an error.
func TestPropagatorCancelsSearchAtNodeBudget(t *testing.T) {
	for _, budget := range []int64{1, 40, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			p := budgetedProblem(seed, 100, budget)
			ffd, err := FFDPlan(Problem{Src: p.Src, Target: p.Target})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Optimizer{Workers: 1, Partitions: 1}.Solve(p)
			if err != nil {
				t.Fatalf("seed %d budget %d: %v", seed, budget, err)
			}
			if res.Nodes != budget && res.Nodes != budget+1 {
				t.Fatalf("seed %d: searched %d nodes under a budget of %d", seed, res.Nodes, budget)
			}
			if res.Optimal {
				t.Fatalf("seed %d budget %d: an interrupted search claims a proof", seed, budget)
			}
			if res.Plan == nil || !res.Dst.Viable() || res.Cost > ffd.Cost {
				t.Fatalf("seed %d budget %d: incumbent of cost %d (FFD %d), viable %t", seed, budget, res.Cost, ffd.Cost, res.Dst.Viable())
			}
			if sum := res.Phases.Compile + res.Phases.Seeds + res.Phases.Build + res.Phases.Search + res.Phases.Plan; sum <= 0 || sum > res.Wall {
				t.Fatalf("seed %d budget %d: phases %+v sum to %v of a one-worker wall of %v", seed, budget, res.Phases, sum, res.Wall)
			}
		}
	}
}

// TestCostBoundAllocatesNothing: the cost bound posted on a model at
// its fixpoint allocates nothing in a full pass after a restore, nor in
// the run that follows an assignment.
func TestCostBoundAllocatesNothing(t *testing.T) {
	p := budgetedProblem(1, 100, 300)
	c, err := Optimizer{}.compile(p, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	m, err := buildModel(Problem{Src: p.Src, Target: p.Target}, c, new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	bound := &cp.TableSum{Obj: m.obj, Items: m.vars, Fixed: c.fixed, Rows: c.rows, Orders: c.order}
	m.s.Post(bound)
	if err := m.s.RemoveAbove(m.obj, c.maxObj/2); err != nil {
		t.Fatal(err)
	}
	var st cp.State
	if err := toFixpoint(m.s, func() { st = m.s.SaveState() }); err != nil {
		t.Fatal(err)
	}
	v := m.vars[len(m.vars)-1]
	for _, step := range []struct {
		name string
		run  func()
	}{
		{"full pass after a restore", func() {
			m.s.RestoreState(st)
			if err := bound.Propagate(m.s); err != nil {
				t.Error(err)
			}
		}},
		{"run after an assignment", func() {
			m.s.RestoreState(st)
			if err := bound.Propagate(m.s); err != nil {
				t.Error(err)
			}
			if err := m.s.Assign(v, v.Max()); err != nil {
				t.Error(err)
			}
			if err := bound.Propagate(m.s); err != nil {
				t.Error(err)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(50, step.run); allocs != 0 {
			t.Errorf("%s: %v allocations, want 0", step.name, allocs)
		}
	}
}

// leastAlloc is the least of three measurements of the bytes op
// allocates, after warm runs that leave idle scratches and do the lazy
// set-up: another goroutine's allocation may fall into one.
func leastAlloc(warm int, op func()) uint64 {
	for range warm {
		op()
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// checkLanding fails the test when got is more than 1.25 x landing:
// bytes are counted, not timed, so a gain cannot leak back unnoticed.
func checkLanding(t *testing.T, what string, got, landing uint64) {
	t.Helper()
	t.Logf("%s allocated %d bytes", what, got)
	if got > landing*5/4 {
		t.Fatalf("%s allocated %d bytes, more than 1.25 x the %d it allocated at landing", what, got, landing)
	}
}

// solveAllocLanding is what one 300-search-node, one-worker solve of
// budgetedProblem(1, 100, 300) allocated once a solve built in the
// scratch a finished one left idle; 558 000 when every solve built in
// fresh storage, once its cost table was int32 and its FFD seed packed
// without a scratch configuration, 717 000 before, when the search
// first backtracked on a trail, 1 051 000 when it copied the slab per
// depth, 2 180 000 before a search state was the slab alone, and about
// 87 MB before the allocation-free hot path.
const solveAllocLanding = 34_344

// TestSolveAllocationBudget fails when a budgeted solve allocates a
// quarter more than it did at landing.
func TestSolveAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	p := budgetedProblem(1, 100, 300)
	opt := Optimizer{Workers: 1, Partitions: 1}
	checkLanding(t, "one solve", leastAlloc(1, func() {
		res, err := opt.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Nodes != 300 && res.Nodes != 301 {
			t.Fatalf("searched %d nodes under a budget of 300", res.Nodes)
		}
	}), solveAllocLanding)
}

// portfolioSolveAllocLanding is what one solve of
// budgetedProblem(1, 100, 300) by four portfolio workers on four cores,
// the width entropyd runs there by default, allocated once every worker
// built in an idle scratch; 1 783 168 when each built in fresh storage.
const portfolioSolveAllocLanding = 120_688

// TestPortfolioSolveAllocationBudget fails when a four-worker solve
// on four cores allocates a quarter more than it did at landing: a
// worker that stops taking its storage from the idle stack pays for a
// whole model. (On fewer cores the stack keeps fewer scratches than
// four workers hold, so whether the last worker finds one hangs on
// whether a sibling finished first.)
func TestPortfolioSolveAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := budgetedProblem(1, 100, 300)
	opt := Optimizer{Workers: 4, Partitions: 1}
	// A worker whose scratch has no free candidate makes one, and the
	// candidates settle one per scratch over a few solves.
	checkLanding(t, "one four-worker solve", leastAlloc(5, func() {
		if _, err := opt.Solve(p); err != nil {
			t.Fatal(err)
		}
	}), portfolioSolveAllocLanding)
}

// ffdPlanAllocLanding is what one FFDPlan of the 500-node instance of
// budgetedProblem(1, 500, ·) allocated once it packed and planned in an
// idle scratch; 329 920 when it compiled, packed and planned (through
// plan.Build) in fresh storage.
const ffdPlanAllocLanding = 69_384

// TestFFDPlanAllocationBudget fails when the FFD baseline of a
// 500-node cluster, plan_large's operation, allocates a quarter more
// than it did at landing.
func TestFFDPlanAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	b := budgetedProblem(1, 500, 0)
	p := Problem{Src: b.Src, Target: b.Target}
	checkLanding(t, "one 500-node FFD plan", leastAlloc(1, func() {
		if _, err := FFDPlan(p); err != nil {
			t.Fatal(err)
		}
	}), ffdPlanAllocLanding)
}

// TestIdleScratchesStayBounded: over 150 four-worker solves, the idle
// stack never holds more than GOMAXPROCS + 1 scratches, and no idle
// scratch keeps more than one free candidate. A displaced incumbent
// goes to the free list of whichever worker displaced it, but a worker
// takes a candidate off its list (or makes one) for every one it puts
// back, and the incumbent a solve returns leaves every list.
func TestIdleScratchesStayBounded(t *testing.T) {
	o := Optimizer{Workers: 4, Partitions: 1}
	most := 0
	for i := range 150 {
		if _, err := o.Solve(budgetedProblem(int64(1+i%5), 48, 100)); err != nil {
			t.Fatal(err)
		}
		idle.Lock()
		depth := len(idle.stack)
		for _, sc := range idle.stack {
			most = max(most, len(sc.free))
		}
		idle.Unlock()
		if depth > runtime.GOMAXPROCS(0)+1 {
			t.Fatalf("solve %d: %d idle scratches, more than GOMAXPROCS + 1 = %d", i, depth, runtime.GOMAXPROCS(0)+1)
		}
	}
	if most > 1 {
		t.Fatalf("an idle scratch kept %d free candidates, want at most 1", most)
	}
}

// slicedSolveAllocLanding is what one one-worker partitioned solve of
// budgetedProblem(1, 1000, 150) — about 63 slice models of 150 search
// nodes each — allocated on two cores once the carve also kept its
// flat arrays in an idle scratch; 1 227 300 when it sized them afresh
// while each pool worker took an idle scratch, 1 480 000 when each
// built in a fresh one, once the carve kept its atoms, bins and rule
// lists in flat arrays; 2 000 000 when each atom and bin held its own
// name lists, 3 149 000 before each pool worker decoded and planned
// its candidates in one plan workspace (every candidate from nil),
// 3 214 000 when each solution's values were a map, 4 896 000 when
// every slice built its model in fresh storage.
const slicedSolveAllocLanding = 977_200

// TestSlicedSolveAllocationBudget fails when that solve allocates a
// quarter more than it did at landing: what a slice model costs is paid
// per slice, and a storage a worker stopped reusing would show here.
func TestSlicedSolveAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	p := budgetedProblem(1, 1000, 150)
	opt := Optimizer{Workers: 1}
	checkLanding(t, "one sliced solve", leastAlloc(1, func() {
		res, err := opt.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partitions < 2 {
			t.Fatalf("the solve went to one model")
		}
	}), slicedSolveAllocLanding)
}

// monoSearchAllocLanding is what one one-worker Minimize on the
// monolithic model of budgetedProblem(1, 500, 1000), 750 VMs over 500
// nodes, allocated over its 1000-node budget once the search
// backtracked on a trail: 39 753 000 when it copied the slab per
// depth, which grows with VMs × nodes per node and with the depth.
const monoSearchAllocLanding = 5_684_100

// TestMonolithicSearchAllocationBudget fails when searching a large
// monolithic model — what the loop falls back to when a carve fails —
// allocates a quarter more than it did at landing, so a per-node cost
// that grows with the model cannot come back unnoticed.
func TestMonolithicSearchAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	p := budgetedProblem(1, 500, 1000)
	c, err := Optimizer{}.compile(p, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	m, err := buildModel(p, c, new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = m.s.Minimize(m.obj, m.opts)
	runtime.ReadMemStats(&after)
	if !cp.Stopped(err) {
		t.Fatalf("the search ended on %v before its node budget", err)
	}
	if nodes, _, _, _ := m.s.Stats(); nodes != 1000 && nodes != 1001 {
		t.Fatalf("searched %d nodes under a budget of 1000", nodes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > monoSearchAllocLanding*5/4 {
		t.Fatalf("one search allocated %d bytes, more than 1.25 x the %d it allocated at landing", got, monoSearchAllocLanding)
	}
}

// lowerBound sums the admissible per-VM cost contributions of a
// solution.
//
// It is the sum the portfolio worker computed for every solution
// before the objective replaced it, kept verbatim as the reference
// TestObjectiveIsActionCostSum compares the objective with.
func (c *compiled) lowerBound(sol cp.Solution) int {
	lb := c.fixed
	for i := range c.runners {
		lb += int(c.rows[i][sol.Value(i)])
	}
	return lb
}

// TestObjectiveIsActionCostSum: at every solution Minimize hands the
// worker's callback, the objective is the action-cost sum of the
// assignment — the cost bound holds obj.Min() at exactly that sum once
// every VM is placed — on seeded 2-D and 4-D problems with a placement
// rule, PinRunning and warm hints; and a one-worker solve whose plan
// the search found reports that sum of its destination as
// Result.LowerBound. Every search stops at a node budget.
func TestObjectiveIsActionCostSum(t *testing.T) {
	const budget = 400
	checked, searched := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		p := tableProblem(seed, seed%2 == 1)
		rng := rand.New(rand.NewSource(seed))
		vms, nodes := p.Src.VMs(), p.Src.Nodes()
		pick := func(k int) (out []string) {
			for _, i := range rng.Perm(len(vms))[:min(k, len(vms))] {
				out = append(out, vms[i].Name)
			}
			return out
		}
		switch seed % 4 {
		case 0:
			p.Rules = append(p.Rules, Spread{VMs: pick(3)})
		case 1:
			p.Rules = append(p.Rules, Ban{VMs: pick(3), Nodes: []string{nodes[rng.Intn(len(nodes))].Name}})
		case 2:
			p.Rules = append(p.Rules, Fence{VMs: pick(2), Nodes: []string{nodes[0].Name, nodes[1].Name, nodes[2].Name}})
		case 3:
			p.Rules = append(p.Rules, Gather{VMs: pick(2)})
		}
		for _, v := range vms {
			p.Rules = append(p.Rules, budgetOn(v.Name, budget))
		}
		o := Optimizer{Workers: 1, Partitions: 1, PinRunning: seed%3 == 0}
		if seed%5 < 3 {
			if ffd, err := FFDPlan(Problem{Src: p.Src, Target: p.Target}); err == nil {
				o.WarmStart = ffd.Dst
			}
		}
		c, err := o.compile(p, new(compiled))
		if errors.Is(err, ErrNoViableConfiguration) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		m, err := buildModel(p, c, new(scratch))
		if errors.Is(err, ErrNoViableConfiguration) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		opts := m.opts
		opts.OnSolution = func(sol cp.Solution) int {
			if want := c.lowerBound(sol); sol.Objective != want {
				t.Fatalf("seed %d: objective %d, action-cost sum %d", seed, sol.Objective, want)
			}
			checked++
			return sol.Objective - 1
		}
		if _, err := m.s.Minimize(m.obj, opts); err != nil && !errors.Is(err, cp.ErrFailed) && !cp.Stopped(err) {
			t.Fatalf("seed %d: %v", seed, err)
		}

		res, err := o.Solve(p)
		if err != nil || res.Winner != "base" {
			continue // no plan, or a seed's, which reports 0
		}
		want := c.fixed
		for i, g := range c.runners {
			want += int(c.rows[i][c.nodeIdx[res.Dst.HostOf(g.vm.Name)]])
		}
		if res.LowerBound != want {
			t.Fatalf("seed %d: Result.LowerBound %d, action-cost sum of its destination %d", seed, res.LowerBound, want)
		}
		searched++
	}
	if checked < 200 || searched < 25 {
		t.Fatalf("%d solutions checked, %d solves won by the search: the generator no longer exercises the objective", checked, searched)
	}
}

// sliceModelAllocLanding is what building one 16-node slice model of
// budgetedProblem(11, 16, 150) and searching it for 150 nodes (its
// seed is the first whose search the budget stops) allocated once the
// search backtracked on a trail, with about 2 % to spare; 26 100 when
// it copied the slab per depth, and 41 744 when a state also kept
// every variable's size and bounds.
const sliceModelAllocLanding = 19_400

// TestSliceModelAllocationBudget fails when one slice model, built and
// searched, allocates more than it did at landing: what the
// propagators and the search keep is per model, and a partitioned
// solve builds dozens of models per solve.
func TestSliceModelAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	p := budgetedProblem(11, 16, 150)
	c, err := Optimizer{}.compile(p, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	solve := func() int64 {
		m, err := buildModel(p, c, new(scratch))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.s.Minimize(m.obj, m.opts); !cp.Stopped(err) {
			t.Fatalf("the search ended on %v before its node budget", err)
		}
		nodes, _, _, _ := m.s.Stats()
		return nodes
	}
	solve() // lazy set-up is not the model's
	// The least of a few measurements: another goroutine's allocation
	// may fall into one.
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nodes := solve()
		runtime.ReadMemStats(&after)
		if nodes != 150 && nodes != 151 {
			t.Fatalf("searched %d nodes under a budget of 150", nodes)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > sliceModelAllocLanding {
		t.Fatalf("one slice model allocated %d bytes, more than the %d it allocated at landing", least, sliceModelAllocLanding)
	}
}

// overloadedReplayAllocs is what one non-improving candidate of
// budgetedProblem(1, 100, 300) allocates: its source starts
// overloaded, and the replay resume grouping runs on a plan that moves
// a vjob's resumes (Plan.replay) lists the source's violations, maps
// them by (node, resource), and lists those each pool leaves, all in
// storage the workspace keeps; 6 when the replay made all three fresh.
const overloadedReplayAllocs = 0

// TestNonImprovingCandidateAllocatesNothing: once a worker's scratch
// has planned a candidate, decoding and planning another that does not
// improve the incumbent, and handing it back to the free list, runs in
// the storage the first left behind, the replay of an overloaded
// source included.
func TestNonImprovingCandidateAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	for _, tc := range []struct {
		p          Problem
		overloaded bool
		want       float64
	}{{budgetedProblem(1, 100, 300), true, overloadedReplayAllocs}, {tableProblem(3, true), false, 0}} {
		p := tc.p
		if overloaded := !p.Src.Viable(); overloaded != tc.overloaded {
			t.Fatalf("source overloaded: %v", overloaded)
		}
		o := Optimizer{Workers: 1}
		sc := new(scratch)
		c, err := o.compile(p, &sc.c)
		if err != nil {
			t.Fatal(err)
		}
		seed := o.ffdSeed(p, c, sc)
		if seed == nil {
			t.Fatal("no FFD seed")
		}
		hosts := make([]int, len(c.runners)) // the seed's assignment
		for i, g := range c.runners {
			hosts[i] = c.nodeIdx[seed.Dst.HostOf(g.vm.Name)]
		}
		sh := &portfolioState{best: seed}
		step := func() {
			r := o.candidate(p, sc, func(dst *vjob.Configuration) (*vjob.Configuration, error) {
				return decode(dst, p.Src, c.goals, c.runners, func(i int) string { return c.nodes[hosts[i]].Name })
			})
			if r == nil {
				t.Fatal("the seed's own assignment was rejected")
			}
			if _, better := sh.offer(r, "base", &sc.free); better {
				t.Fatal("an equal cost improved the incumbent")
			}
		}
		step()
		if allocs := testing.AllocsPerRun(20, step); allocs > tc.want {
			t.Errorf("%d runners, %d actions: %v allocations per non-improving candidate, want at most %v",
				len(c.runners), seed.Plan.NumActions(), allocs, tc.want)
		}
		if len(sc.free) != 1 || sh.best != seed {
			t.Fatalf("%d candidates on the free list, want 1, and the seed still the incumbent", len(sc.free))
		}
	}
}
