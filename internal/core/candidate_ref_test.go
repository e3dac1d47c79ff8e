package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cwcs/internal/cp"
	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// refDecode is decode as it ran before it wrote into a recycled
// configuration: every destination a Clone of src. It is kept verbatim
// as the reference TestCandidatesMatchReference compares with.
func refDecode(src *vjob.Configuration, goals, runners []vmGoal, host func(i int) string) (*vjob.Configuration, error) {
	dst := src.Clone()
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

// refCandidate is candidate as it ran before it planned in a worker's
// workspace: the reference destination, checked the same way, and
// planned from nil by plan.BuildGraph and Builder.Plan.
func (o Optimizer) refCandidate(p Problem, dst *vjob.Configuration, err error) *Result {
	if err != nil || !dst.Viable() || !rulesHold(p.Rules, dst) || !o.respectsPins(p.Src, dst) {
		return nil
	}
	g, err := plan.BuildGraph(p.Src, dst)
	if err != nil {
		return nil
	}
	pl, err := o.Builder.Plan(g)
	if err != nil {
		return nil
	}
	return &Result{Dst: dst, Plan: pl, Cost: pl.Cost()}
}

// sameCandidate describes how got differs from want, or returns "".
func sameCandidate(got, want *Result) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("planned %t, reference %t", got != nil, want != nil)
	case got == nil:
		return ""
	case got.Plan.String() != want.Plan.String() || got.Cost != want.Cost || got.Plan.Bypass != want.Plan.Bypass:
		return fmt.Sprintf("cost %d, reference %d:\n%s\nreference:\n%s", got.Cost, want.Cost, got.Plan, want.Plan)
	case !got.Dst.Equal(want.Dst):
		return "destinations differ"
	}
	return ""
}

// TestCandidatesMatchReference: on the seeded problems of
// TestCompileMatchesReference and the benchmark's solve_mono instances
// of seeds 1 to 6, plain, with PinRunning and with a warm start, every
// candidate one worker's scratch builds — the FFD
// seed, the warm seed and each solution of a node-budgeted search, in
// storage recycled as the portfolio recycles it — has the destination,
// plan, cost and bypass count of the reference, decoded into a clone
// and planned from nil; and the incumbent, never recycled, still reads
// at the end as it did when it was offered.
func TestCandidatesMatchReference(t *testing.T) {
	var problems []Problem
	for seed := int64(0); seed < 60; seed++ {
		p := compileProblem(seed, seed%2 == 1)
		for _, v := range p.Src.VMs() {
			p.Rules = append(p.Rules, budgetOn(v.Name, 200))
		}
		problems = append(problems, p)
	}
	for seed := int64(1); seed <= 6; seed++ {
		problems = append(problems, budgetedProblem(seed, 100, 300))
	}
	var checked, recycled int
	for n, p := range problems {
		var warm *vjob.Configuration
		if ffd, err := FFDPlan(Problem{Src: p.Src, Target: p.Target}); err == nil {
			warm = ffd.Dst
		}
		for _, o := range []Optimizer{{}, {PinRunning: true}, {WarmStart: warm}} {
			checked, recycled = checkCandidates(t, n, o, p, checked, recycled)
		}
	}
	t.Logf("%d candidates checked, %d built in recycled storage", checked, recycled)
	if checked < 1000 || recycled < 500 {
		t.Fatalf("%d candidates checked, %d built in recycled storage", checked, recycled)
	}
}

// checkCandidates runs one problem of TestCandidatesMatchReference and
// adds to its counts.
func checkCandidates(t *testing.T, n int, o Optimizer, p Problem, checked, recycled int) (int, int) {
	sc := new(scratch)
	c, err := o.compile(p, &sc.c)
	if err != nil {
		return checked, recycled
	}
	check := func(what string, got *Result, dst *vjob.Configuration, err error) {
		t.Helper()
		if d := sameCandidate(got, o.refCandidate(p, dst, err)); d != "" {
			t.Fatalf("problem %d, %s: %s", n, what, d)
		}
		checked++
	}
	seed := o.ffdSeed(p, c, sc)
	dst, err := refFFDDestination(p.Src, c.goals)
	check("FFD seed", seed, dst, err)
	if o.WarmStart != nil {
		ws := o.warmSeed(p, c, sc)
		dst, err := refDecode(p.Src, c.goals, c.runners, func(i int) string { return c.nodes[c.hints[i]].Name })
		check("warm seed", ws, dst, err)
		if ws != nil {
			sc.free = append(sc.free, ws)
		}
	}
	m, err := buildModel(p, c, sc)
	if err != nil {
		t.Fatal(err)
	}
	bound := c.maxObj
	if seed != nil {
		bound = seed.Cost - 1
	}
	sh := &portfolioState{bound: cp.NewIncumbent(bound), best: seed}
	bestText := ""
	if seed != nil {
		bestText = seed.Plan.String()
	}
	opts := m.opts
	opts.SharedBound = sh.bound
	opts.OnSolution = func(sol cp.Solution) int {
		host := func(i int) string { return c.nodes[sol.Value(i)].Name }
		if len(sc.free) > 0 {
			recycled++
		}
		got := o.candidate(p, sc, func(dst *vjob.Configuration) (*vjob.Configuration, error) {
			return decode(dst, p.Src, c.goals, c.runners, host)
		})
		dst, err := refDecode(p.Src, c.goals, c.runners, host)
		check("a solution", got, dst, err)
		bound := sol.Objective - 1
		if got != nil {
			incumbent, better := sh.offer(got, "base", &sc.free)
			if better {
				bestText = got.Plan.String()
			}
			bound = min(bound, incumbent-1)
		}
		sh.bound.Tighten(bound)
		return sh.bound.Bound()
	}
	if _, err := m.s.Minimize(m.obj, opts); err != nil && !cp.Stopped(err) && err != cp.ErrFailed {
		t.Fatal(err)
	}
	if sh.best != nil && sh.best.Plan.String() != bestText {
		t.Fatalf("problem %d: the incumbent's plan changed after it was offered", n)
	}
	return checked, recycled
}

// escaped is a returned result and what it read when it came back.
type escaped struct {
	r    *Result
	text string
	cost int
	dst  *vjob.Configuration
}

func escape(r *Result) escaped { return escaped{r, r.Plan.String(), r.Cost, r.Dst.Clone()} }

func (e escaped) changed() bool {
	return e.r.Plan.String() != e.text || e.r.Cost != e.cost || !e.r.Dst.Equal(e.dst)
}

// TestEscapedResultSurvivesReuse: the per-slice results of a
// solveSlices batch and the result of a solveMonolithic solve keep
// their plans, costs and destinations while the same scratch solves
// other problems with four portfolio workers, which hand displaced
// incumbents across their free lists, and with one. Each slice's result
// is also the plan a fresh planner builds for its destination, so no
// slice solved after it on the pool worker's scratch wrote into it.
func TestEscapedResultSurvivesReuse(t *testing.T) {
	ctx := context.Background()
	p := budgetedProblem(1, 300, 150)
	parts, err := Partitioner{}.Split(p)
	if err != nil || len(parts) < 2 {
		t.Fatalf("%d slices, %v", len(parts), err)
	}
	o := Optimizer{Workers: 4 * len(parts)} // four workers per slice
	results, err := o.solveSlices(ctx, parts)
	if err != nil {
		t.Fatal(err)
	}
	var kept []escaped
	for i, r := range results {
		fresh, err := plan.Build(parts[i].Src, r.Dst)
		if err != nil || fresh.String() != r.Plan.String() || r.Cost != fresh.Cost() {
			t.Fatalf("slice %d: its plan is not its destination's (%v)", i, err)
		}
		kept = append(kept, escape(r))
	}
	sc := new(scratch)
	res, err := o.solveMonolithic(ctx, budgetedProblem(2, 100, 300), 4, sc)
	if err != nil {
		t.Fatal(err)
	}
	kept = append(kept, escape(res))
	for seed := int64(3); seed <= 6; seed++ {
		workers := 4
		if seed%2 == 0 {
			workers = 1
		}
		if _, err := o.solveMonolithic(ctx, budgetedProblem(seed, 100, 300), workers, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := o.solveSlices(ctx, parts); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range kept {
		if e.changed() {
			t.Fatalf("result %d of %d changed after its scratch solved on", i, len(kept))
		}
	}
}

// sameResult reports why got is not want — destination, plan or cost
// — or "" when it is.
func sameResult(got, want *Result) string {
	switch {
	case !got.Dst.Equal(want.Dst):
		return "another destination"
	case got.Plan.String() != want.Plan.String():
		return "another plan"
	case got.Cost != want.Cost:
		return fmt.Sprintf("cost %d, want %d", got.Cost, want.Cost)
	}
	return ""
}

// inFreshStorage runs f with the idle stack emptied, so every scratch
// f takes is new, then puts the stack back as it was.
func inFreshStorage(f func()) {
	idle.Lock()
	saved := idle.stack
	idle.stack = nil
	idle.Unlock()
	f()
	idle.Lock()
	idle.stack = saved
	idle.Unlock()
}

// TestEscapedPublicResultsSurviveReuse: what Solve returns — with one
// worker and four, one model and sliced — and what FFDPlan returns keep
// their plans, costs and destinations while 24 more solves and FFD
// plans of other sizes and seeds build in the scratches they left idle.
func TestEscapedPublicResultsSurviveReuse(t *testing.T) {
	var kept []escaped
	for i, o := range []Optimizer{{Workers: 1, Partitions: 1}, {Workers: 4, Partitions: 1}, {Workers: 1}, {Workers: 4}} {
		res, err := o.Solve(budgetedProblem(int64(1+i), 256, 150))
		if err != nil {
			t.Fatal(err)
		}
		if sliced := res.Partitions >= 2; sliced != (o.Partitions == 0) {
			t.Fatalf("%+v: %d partitions", o, res.Partitions)
		}
		kept = append(kept, escape(res))
	}
	b := budgetedProblem(5, 256, 0)
	ffd, err := FFDPlan(Problem{Src: b.Src, Target: b.Target})
	if err != nil {
		t.Fatal(err)
	}
	kept = append(kept, escape(ffd))
	for i := range 24 {
		p := budgetedProblem(int64(6+i), 32+32*(i%5), 150)
		o := Optimizer{Workers: 1 + 3*(i%2), Partitions: i % 3 % 2}
		if _, err := o.Solve(p); err != nil {
			t.Fatal(err)
		}
		if _, err := FFDPlan(Problem{Src: p.Src, Target: p.Target}); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range kept {
		if e.changed() {
			t.Fatalf("result %d of %d changed after later solves took its scratches", i, len(kept))
		}
	}
}

// TestConcurrentSolvesMatchAlone: two goroutines solving at once take
// and release idle scratches in whatever order they meet, and each of
// their 50 solves returns what the same one-worker solve returns alone
// in fresh storage.
func TestConcurrentSolvesMatchAlone(t *testing.T) {
	type solve struct {
		o Optimizer
		p Problem
	}
	var solves []solve
	for seed := int64(1); seed <= 4; seed++ {
		solves = append(solves,
			solve{Optimizer{Workers: 1, Partitions: 1}, budgetedProblem(seed, 32+16*int(seed), 100)},
			solve{Optimizer{Workers: 1}, budgetedProblem(seed, 64, 100)})
	}
	want := make([]*Result, len(solves))
	inFreshStorage(func() {
		for i, s := range solves {
			res, err := s.o.Solve(s.p)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
	})
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 50 {
				i := (k + 3*g) % len(solves)
				res, err := solves[i].o.Solve(solves[i].p)
				if err != nil {
					t.Errorf("goroutine %d, solve %d: %v", g, i, err)
					return
				}
				if why := sameResult(res, want[i]); why != "" {
					t.Errorf("goroutine %d, solve %d: %s than alone", g, i, why)
					return
				}
			}
		}()
	}
	wg.Wait()
}
