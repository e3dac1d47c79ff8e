package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"cwcs/internal/cp"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// fullPacking is cp.Packing as it ran before it kept sums between runs:
// restoring the state it runs in makes every run a full pass, which
// recounts every item and prunes on every bin (cp's
// FuzzDeltaPropagation holds that pass to the mask form it replaced).
type fullPacking struct{ *cp.Packing }

func (p fullPacking) Propagate(s *cp.Solver) error {
	s.RestoreState(s.SaveState())
	return p.Packing.Propagate(s)
}

// refModel is buildModel with the propagators
// as they ran before they learned which variables changed: fullPacking
// for each cp.Packing and the costBound closure for cp.TableSum.
func refModel(p Problem, c *compiled) (*searchModel, error) {
	s := cp.NewSolver()
	vars := make([]*cp.IntVar, len(c.runners))
	varByName := make(map[string]*cp.IntVar, len(c.runners))
	for i, g := range c.runners {
		vars[i] = s.NewEnumVar(g.vm.Name, c.allowed[i])
		if c.prefs[i] >= 0 {
			vars[i].SetPreferred(c.prefs[i])
		}
		if c.hints[i] >= 0 {
			vars[i].SetHint(c.hints[i])
		}
		varByName[g.vm.Name] = vars[i]
	}
	for _, k := range resources.Kinds() {
		if !c.active[k] || len(c.runners) == 0 {
			continue
		}
		w, capacity := make([]int, len(c.runners)), make([]int, len(c.nodes))
		for i, g := range c.runners {
			w[i] = g.vm.Demand.Get(k)
		}
		for j, n := range c.nodes {
			capacity[j] = n.Capacity.Get(k)
		}
		s.Post(fullPacking{&cp.Packing{Name: k.String(), Items: vars, Weights: w, Capacity: capacity}})
	}
	for _, rule := range p.Rules {
		if err := rule.Apply(s, varByName, c.nodeIdx); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoViableConfiguration, err)
		}
	}
	obj := s.NewIntVar("cost", 0, c.maxObj)
	s.Post(c.costBound(vars, obj))
	opts := cp.Options{Vars: vars, FirstFail: true, PreferValue: true}
	return &searchModel{s: s, vars: vars, obj: obj, opts: opts}, nil
}

// searchRun is what one search went through: its counters, and per
// solution the objective and the assignment.
type searchRun struct {
	nodes, fails, solutions, propagations int64
	objectives                            []int
	assignments                           [][]int
	best                                  *Result
}

// replay searches m the way a lone runPortfolioWorker does: the bound
// starts below the seed's cost, and each solution is decoded, planned
// and kept when cheaper, the next bound min(objective, incumbent) - 1.
func replay(o Optimizer, p Problem, c *compiled, m *searchModel, seed *Result) searchRun {
	run := searchRun{best: seed}
	bound := c.maxObj
	if seed != nil {
		bound = min(bound, seed.Cost-1)
	}
	shared := cp.NewIncumbent(bound)
	opts := m.opts
	opts.SharedBound = shared
	opts.OnSolution = func(sol cp.Solution) int {
		at := make([]int, len(m.vars))
		for i := range m.vars {
			at[i] = sol.Value(i)
		}
		run.objectives = append(run.objectives, sol.Objective)
		run.assignments = append(run.assignments, at)
		bound := sol.Objective - 1
		if res := o.candidate(p, new(scratch), func(dst *vjob.Configuration) (*vjob.Configuration, error) {
			return decode(dst, p.Src, c.goals, c.runners, func(i int) string { return c.nodes[at[i]].Name })
		}); res != nil {
			if run.best == nil || res.Cost < run.best.Cost {
				run.best = res
			}
			bound = min(bound, run.best.Cost-1)
		}
		shared.Tighten(bound)
		return shared.Bound()
	}
	m.s.Minimize(m.obj, opts)
	run.nodes, run.fails, run.solutions, run.propagations = m.s.Stats()
	return run
}

// TestSearchMatchesRecomputingPropagators solves, one worker each, 60
// seeded 2-D and 4-D problems with a placement rule, PinRunning on
// every third and warm hints on three in five, and the benchmark's
// solve_mono instances of seeds 1 to 3, all under node budgets — once
// with the propagators that keep sums between runs and once with the
// ones that recompute everything on every run. Both searches must open
// the same nodes, fail the same, run as many propagators, and find the
// same solutions in the same order; and the first must be what
// Optimizer.Solve searched and returned.
func TestSearchMatchesRecomputingPropagators(t *testing.T) {
	type instance struct {
		name string
		o    Optimizer
		p    Problem
	}
	var instances []instance
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
			p.Rules = append(p.Rules, budgetOn(v.Name, 400))
		}
		o := Optimizer{Workers: 1, Partitions: 1, PinRunning: seed%3 == 0}
		if seed%5 < 3 {
			if ffd, err := FFDPlan(Problem{Src: p.Src, Target: p.Target}); err == nil {
				o.WarmStart = ffd.Dst
			}
		}
		instances = append(instances, instance{fmt.Sprintf("table seed %d", seed), o, p})
	}
	for seed := int64(1); seed <= 3; seed++ {
		instances = append(instances, instance{fmt.Sprintf("solve_mono seed %d", seed), Optimizer{Workers: 1, Partitions: 1}, budgetedProblem(seed, 100, 300)})
	}

	searched, found := 0, 0
	for _, in := range instances {
		o, p := in.o, in.p
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
		ref, err := refModel(p, c)
		if err != nil {
			t.Fatal(err)
		}
		// The seed solveMonolithic starts from.
		seed := o.ffdSeed(p, c, new(scratch))
		if ws := o.warmSeed(p, c, new(scratch)); ws != nil && (seed == nil || ws.Cost < seed.Cost) {
			seed = ws
		}
		got, want := replay(o, p, c, m, seed), replay(o, p, c, ref, seed)
		if got.nodes != want.nodes || got.fails != want.fails || got.solutions != want.solutions || got.propagations != want.propagations {
			t.Fatalf("%s: %d nodes, %d fails, %d solutions, %d propagations; recomputing: %d, %d, %d, %d",
				in.name, got.nodes, got.fails, got.solutions, got.propagations, want.nodes, want.fails, want.solutions, want.propagations)
		}
		if !slices.Equal(got.objectives, want.objectives) {
			t.Fatalf("%s: objectives %v, recomputing %v", in.name, got.objectives, want.objectives)
		}
		for k := range got.assignments {
			if !slices.Equal(got.assignments[k], want.assignments[k]) {
				t.Fatalf("%s: solution %d is %v, recomputing %v", in.name, k, got.assignments[k], want.assignments[k])
			}
		}

		res, err := o.Solve(p)
		if err != nil {
			if got.best != nil {
				t.Fatalf("%s: %v, but the search has a plan", in.name, err)
			}
			continue
		}
		if res.Nodes != got.nodes || res.Fails != got.fails || !res.Dst.Equal(got.best.Dst) {
			t.Fatalf("%s: Solve searched %d nodes with %d fails and returned cost %d; the replay %d, %d, cost %d",
				in.name, res.Nodes, res.Fails, res.Cost, got.nodes, got.fails, got.best.Cost)
		}
		searched++
		found += len(got.objectives)
	}
	if searched < 45 || found < 200 {
		t.Fatalf("%d instances searched, %d solutions: the generator no longer exercises the search", searched, found)
	}
}

// TestSolveMonoSearchMatchesSlabCopy replays the one-worker search of
// the benchmark's solve_mono instances of seeds 1 to 3 on core's model
// and requires what the slab-copy search (cp's reference, which copied
// every domain per depth and listed each node's values up front) went
// through on them: nodes, fails, solutions, propagator runs, the
// objectives, and an FNV-64a digest of the assignments. cp's reference
// cannot search a core model — test files do not cross packages — so
// its figures are pinned here, as it printed them.
func TestSolveMonoSearchMatchesSlabCopy(t *testing.T) {
	for _, want := range []struct {
		seed                                  int64
		nodes, fails, solutions, propagations int64
		objectives                            []int
		digest                                uint64
	}{
		{1, 300, 65, 1, 7108, []int{49408}, 0x115e02f0f4a5e8d5},
		{2, 300, 4, 1, 6350, []int{85760}, 0xef2cbd792f99db9e},
		{3, 300, 0, 2, 6860, []int{91136, 90880}, 0x12be20d287dc573a},
	} {
		p := budgetedProblem(want.seed, 100, 300)
		o := Optimizer{Workers: 1, Partitions: 1}
		c, err := o.compile(p, new(compiled))
		if err != nil {
			t.Fatal(err)
		}
		m, err := buildModel(p, c, new(scratch))
		if err != nil {
			t.Fatal(err)
		}
		seed := o.ffdSeed(p, c, new(scratch))
		got := replay(o, p, c, m, seed)
		h := fnv.New64a()
		for _, a := range got.assignments {
			fmt.Fprint(h, a)
		}
		if got.nodes != want.nodes || got.fails != want.fails || got.solutions != want.solutions ||
			got.propagations != want.propagations || !slices.Equal(got.objectives, want.objectives) || h.Sum64() != want.digest {
			t.Fatalf("seed %d: %d nodes, %d fails, %d solutions, %d propagations, objectives %v, digest %#x; slab copy: %d, %d, %d, %d, %v, %#x",
				want.seed, got.nodes, got.fails, got.solutions, got.propagations, got.objectives, h.Sum64(),
				want.nodes, want.fails, want.solutions, want.propagations, want.objectives, want.digest)
		}
	}
}
