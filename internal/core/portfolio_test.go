package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"cwcs/internal/cp"
	"cwcs/internal/vjob"
)

// portfolioProblem builds a consolidation instance with real slack, so
// the portfolio has an actual search to race.
func portfolioProblem(seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	nNodes := 4 + rng.Intn(4)
	c := mkCluster(nNodes, 2, 4096)
	target := map[string]vjob.State{}
	for j := 0; j < 2+rng.Intn(3); j++ {
		name := fmt.Sprintf("j%d", j)
		vms := make([]*vjob.VM, 1+rng.Intn(3))
		for k := range vms {
			vms[k] = vjob.NewVM(fmt.Sprintf("%s-%d", name, k), name, rng.Intn(2), 256*(1+rng.Intn(8)))
			c.AddVM(vms[k])
		}
		vjob.NewVJob(name, j, vms...)
		for _, v := range vms {
			if rng.Intn(3) > 0 {
				for _, n := range c.Nodes() {
					if c.Fits(v, n.Name) {
						_ = c.SetRunning(v.Name, n.Name)
						break
					}
				}
			}
		}
		target[name] = vjob.Running
	}
	return Problem{Src: c, Target: target}
}

// TestPortfolioLineup pins the portfolio's labels for every width up
// to six, requires worker 0 to be the paper's search unshuffled, and
// requires that no two workers search in the same order: two workers
// with one shuffle seed would explore the same tree node for node, and
// one of them would be a wasted core.
func TestPortfolioLineup(t *testing.T) {
	want := []string{"base", "shuffle#1", "shuffle#2", "shuffle#3", "shuffle#4", "shuffle#5"}
	for n := 1; n <= len(want); n++ {
		res, err := Optimizer{Workers: n, Partitions: 1}.Solve(portfolioProblem(1))
		if err != nil {
			t.Fatal(err)
		}
		var labels []string
		for _, w := range res.Outcomes {
			labels = append(labels, w.Strategy)
		}
		if !slices.Equal(labels, want[:n]) {
			t.Fatalf("Workers: %d runs %v, want %v", n, labels, want[:n])
		}
	}

	// Each worker alone, from no seed, to a node budget: worker 0
	// searches as the model buildModel hands out does, and no two
	// workers fail or find alike.
	p := budgetedProblem(1, 100, 200)
	o := Optimizer{Workers: 1, Partitions: 1}
	c, err := o.compile(p, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	m, err := buildModel(p, c, new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	if m.opts.ShuffleSeed != 0 || !m.opts.FirstFail || !m.opts.PreferValue {
		t.Fatalf("buildModel's options are %+v, want the paper's first-fail, prefer-current-host search", m.opts)
	}
	base := replay(o, p, c, m, nil)
	seen := map[string]int{}
	for k := range want {
		ctx, cancel := context.WithCancel(context.Background())
		sh := &portfolioState{bound: cp.NewIncumbent(c.maxObj), start: time.Now(), cancel: cancel}
		o.runPortfolioWorker(ctx, p, c, k, sh, new(scratch))
		cancel()
		if sh.err != nil || sh.best == nil {
			t.Fatalf("worker %d: best %v, error %v", k, sh.best, sh.err)
		}
		if k == 0 && (sh.nodes != base.nodes || sh.fails != base.fails || !sh.best.Dst.Equal(base.best.Dst)) {
			t.Fatalf("worker 0 searched %d nodes with %d fails to cost %d; the unshuffled model %d, %d, cost %d",
				sh.nodes, sh.fails, sh.best.Cost, base.nodes, base.fails, base.best.Cost)
		}
		key := fmt.Sprint(sh.nodes, sh.fails, sh.solutions)
		for _, b := range sh.traj {
			key += fmt.Sprint(" ", b.Cost)
		}
		for _, g := range c.runners {
			key += " " + sh.best.Dst.HostOf(g.vm.Name)
		}
		if prev, ok := seen[key]; ok {
			t.Fatalf("workers %d and %d searched alike: %s", prev, k, key)
		}
		seen[key] = k
	}
}

// TestPortfolioOptimizerSolves: the parallel portfolio produces a
// viable, validated, proven-optimal plan no worse than the FFD
// baseline — the same contract a lineup of one honours. (Exact cost
// agreement across widths is only asserted where the optimum is
// unique, see TestPortfolioWorkerWidths: the loop's aggressive
// action-sum tightening makes the chosen witness order-dependent.)
func TestPortfolioOptimizerSolves(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := portfolioProblem(seed)
		ffd, ferr := FFDPlan(p)
		res, err := Optimizer{Workers: 4, Timeout: 5 * time.Second}.Solve(p)
		if err != nil {
			if errors.Is(err, ErrNoViableConfiguration) && ferr != nil {
				continue // genuinely infeasible either way
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Dst.Viable() {
			t.Fatalf("seed %d: destination not viable: %v", seed, res.Dst.Violations())
		}
		if verr := res.Plan.Validate(); verr != nil {
			t.Fatalf("seed %d: plan invalid: %v", seed, verr)
		}
		if !res.Optimal {
			t.Fatalf("seed %d: no timeout pressure, yet optimality not proven", seed)
		}
		if ferr == nil && res.Cost > ffd.Cost {
			t.Fatalf("seed %d: portfolio cost %d worse than FFD %d", seed, res.Cost, ffd.Cost)
		}
	}
}

// TestPortfolioWorkerWidths: every width solves the same instance and
// reports a cost within the sequential search's proof bound.
func TestPortfolioWorkerWidths(t *testing.T) {
	p := portfolioProblem(3)
	seq, err := Optimizer{Workers: 1, Timeout: 5 * time.Second}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		res, err := Optimizer{Workers: w, Timeout: 5 * time.Second}.Solve(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Optimal || !seq.Optimal {
			t.Fatalf("workers=%d: optimality not proven (seq=%v par=%v)", w, seq.Optimal, res.Optimal)
		}
		if res.Cost != seq.Cost {
			// Both proved optimality w.r.t. the action-sum bound; on
			// this instance the optimum is unique, so they must agree.
			t.Fatalf("workers=%d: cost %d != sequential %d", w, res.Cost, seq.Cost)
		}
	}
}

// TestSolveContextCanceled: a canceled context falls back to the FFD
// seed (like an expired timeout) instead of erroring.
func TestSolveContextCanceled(t *testing.T) {
	c := mkCluster(2, 1, 4096)
	c.AddVM(vjob.NewVM("v", "j", 1, 512))
	if err := c.SetSleeping("v", "n01"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}}
	for _, w := range []int{1, 4} {
		res, err := Optimizer{Workers: w}.SolveContext(ctx, p)
		if err != nil {
			t.Fatalf("workers=%d: err = %v", w, err)
		}
		if res.Optimal {
			t.Fatalf("workers=%d: canceled search must not claim optimality", w)
		}
		if res.Dst.StateOf("v") != vjob.Running || !res.Dst.Viable() {
			t.Fatalf("workers=%d: fallback result unusable", w)
		}
	}
}

// TestSolveContextCanceledNoSeed: with no heuristic fallback either,
// cancellation surfaces as ErrNoViableConfiguration.
func TestSolveContextCanceledNoSeed(t *testing.T) {
	c := mkCluster(1, 1, 4096)
	c.AddVM(vjob.NewVM("a", "j", 1, 512))
	c.AddVM(vjob.NewVM("b", "j", 1, 512))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}}
	for _, w := range []int{1, 4} {
		o := Optimizer{Workers: w}
		if _, err := o.SolveContext(ctx, p); !errors.Is(err, ErrNoViableConfiguration) {
			t.Fatalf("workers=%d: err = %v, want ErrNoViableConfiguration", w, err)
		}
	}
}

// TestPortfolioRespectsRules: placement rules hold under every worker
// width.
func TestPortfolioRespectsRules(t *testing.T) {
	c := mkCluster(4, 2, 4096)
	for i := 0; i < 3; i++ {
		v := vjob.NewVM(fmt.Sprintf("ha-%d", i), "ha", 1, 1024)
		c.AddVM(v)
		mustRun(t, c, v.Name, "n00")
	}
	p := Problem{
		Src:    c,
		Target: map[string]vjob.State{"ha": vjob.Running},
		Rules:  []PlacementRule{Spread{VMs: []string{"ha-0", "ha-1", "ha-2"}}},
	}
	for _, w := range []int{1, 4} {
		res, err := Optimizer{Workers: w, Timeout: 5 * time.Second}.Solve(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		hosts := map[string]bool{}
		for i := 0; i < 3; i++ {
			hosts[res.Dst.HostOf(fmt.Sprintf("ha-%d", i))] = true
		}
		if len(hosts) != 3 {
			t.Fatalf("workers=%d: spread violated: %v", w, hosts)
		}
	}
}

// startedRule posts nothing and counts started down once per model it
// is applied to: once started is done, every worker of a solve has
// applied its rules and is about to search.
type startedRule struct{ started *sync.WaitGroup }

func (r startedRule) Apply(*cp.Solver, map[string]*cp.IntVar, map[string]int) error {
	r.started.Done()
	return nil
}
func (startedRule) Check(*vjob.Configuration) error                    { return nil }
func (startedRule) ScopeVMs() []string                                 { return nil }
func (startedRule) BindNodes() []string                                { return nil }
func (r startedRule) Rescope(vms, nodes map[string]bool) PlacementRule { return r }

// spawnSolve starts o.SolveContext(ctx, p) on a goroutine of its own,
// with a startedRule that each of its workers' models applies added to
// p's rules, and returns the rule's WaitGroup and the channel the
// solve's error comes back on.
func spawnSolve(ctx context.Context, o Optimizer, p Problem, workers int) (*sync.WaitGroup, <-chan error) {
	started := new(sync.WaitGroup)
	started.Add(workers)
	p.Rules = append(slices.Clip(p.Rules), startedRule{started})
	done := make(chan error, 1)
	go func() {
		_, err := o.SolveContext(ctx, p)
		done <- err
	}()
	return started, done
}

// waitStartSolve waits until every worker has built its model, or
// fails the test after a minute.
func waitStartSolve(t *testing.T, started *sync.WaitGroup) {
	t.Helper()
	all := make(chan struct{})
	go func() {
		started.Wait()
		close(all)
	}()
	select {
	case <-all:
	case <-time.After(time.Minute):
		t.Fatal("the solve's workers did not all start within a minute")
	}
}

// cancelAndWaitExit cancels the solve and returns how long it took to
// come back, failing the test when it had returned before the cancel,
// on an error or after a minute.
func cancelAndWaitExit(t *testing.T, cancel context.CancelFunc, done <-chan error) time.Duration {
	t.Helper()
	select {
	case <-done:
		t.Fatal("the solve returned before the cancel")
	default:
	}
	at := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("canceled solve: %v", err)
		}
		return time.Since(at)
	case <-time.After(time.Minute):
		t.Fatal("the canceled solve did not return within a minute")
		return 0
	}
}

// TestPortfolioCancelReturnsPromptly: a four-wide portfolio on the
// solve_mono instance at 30 000 nodes per worker (seconds of search),
// canceled once every worker searches, returns its incumbent within
// 50 ms of the cancel:
// every worker polls the context after every fail as well as every 64
// nodes, so one that fails dozens of tries per node under the shared
// bound still sees the cancel within a millisecond or two.
func TestPortfolioCancelReturnsPromptly(t *testing.T) {
	const workers = 4
	for _, after := range []time.Duration{0, 100 * time.Millisecond, 400 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		started, done := spawnSolve(ctx, Optimizer{Workers: workers, Partitions: 1}, budgetedProblem(1, 100, 30000), workers)
		waitStartSolve(t, started)
		time.Sleep(after) // the cancel lands in the first dives, or under a bound found since
		if took := cancelAndWaitExit(t, cancel, done); took > 50*time.Millisecond {
			t.Fatalf("canceled %v after every worker started, the solve returned %v later; want at most 50 ms", after, took)
		}
	}
}
