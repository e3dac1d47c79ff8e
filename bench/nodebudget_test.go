package main

import (
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/duration"
	"cwcs/internal/monitor"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// budgetedProblem generates a §5.1 instance with its node budgets.
func budgetedProblem(seed int64, nodes int, budget int64) core.Problem {
	p := consolidation(seed, nodes, nil)
	p.Rules = budgetRules(p.Src, budget)
	return p
}

// The optimizer's own deadline is well above anything a budgeted solve
// needs and well below the test timeout: if a change to cp ever
// swallows the propagator's ErrCanceled, the search runs on past its
// budget and the node counts below are wrong.
var budgeted = core.Optimizer{Workers: 1, Timeout: 20 * time.Second}

func TestBudgetStopsOneModel(t *testing.T) {
	for _, budget := range []int64{40, 200} {
		p := budgetedProblem(1, 100, budget)
		opt := budgeted
		opt.Partitions = 1
		t0 := time.Now()
		res, err := opt.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimal || res.Nodes < budget || res.Nodes > budget+1 {
			t.Errorf("budget %d: searched %d nodes, optimal=%v; want the budget (one more after a leaf) and no proof", budget, res.Nodes, res.Optimal)
		}
		if took := time.Since(t0); took > opt.Timeout/2 {
			t.Errorf("budget %d: took %v, close to the %v deadline: the budget did not end the solve", budget, took, opt.Timeout)
		}
	}
}

func TestBudgetAppliesToEachSlice(t *testing.T) {
	const budget = 60
	p := budgetedProblem(2, 160, budget)
	parts, err := core.Partitioner{}.Split(p)
	if err != nil || len(parts) < 2 {
		t.Fatalf("instance does not split: %d parts, %v", len(parts), err)
	}
	one := budgeted
	one.Partitions = 1
	var total int64
	spent := 0
	for i, sub := range parts {
		if len(sub.Rules) != sub.Src.NumVMs() {
			t.Fatalf("slice %d got %d budget rules for %d VMs", i, len(sub.Rules), sub.Src.NumVMs())
		}
		res, err := one.Solve(sub)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		switch {
		case res.Nodes > budget+1:
			t.Errorf("slice %d searched %d nodes over a budget of %d", i, res.Nodes, budget)
		case res.Nodes >= budget:
			spent++
		case !res.Optimal:
			t.Errorf("slice %d stopped at %d nodes with neither its budget spent nor a proof", i, res.Nodes)
		}
		total += res.Nodes
	}
	if spent == 0 {
		t.Error("no slice spent its budget: the instance is too easy to test anything")
	}
	whole, err := budgeted.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Partitions != len(parts) || whole.Nodes != total {
		t.Errorf("partitioned solve: %d parts, %d nodes; slice by slice: %d parts, %d nodes", whole.Partitions, whole.Nodes, len(parts), total)
	}
}

func TestBudgetLeavesAnEasyProofAlone(t *testing.T) {
	p := budgetedProblem(3, 6, 100000)
	with, err := budgeted.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Rules = nil
	without, err := budgeted.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !with.Optimal || !without.Optimal {
		t.Fatalf("optimal with budget %v, without %v; want both", with.Optimal, without.Optimal)
	}
	if with.Cost != without.Cost || with.Nodes != without.Nodes {
		t.Errorf("the budget changed the search: cost %d/%d, nodes %d/%d", with.Cost, without.Cost, with.Nodes, without.Nodes)
	}
}

func TestBudgetIsNotAPlacementRule(t *testing.T) {
	// Three one-CPU VMs on a one-CPU node: two violations, for good.
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 1, 4096))
	for _, name := range []string{"a", "b", "c"} {
		cfg.AddVM(vjob.NewVM(name, "job", 1, 512))
		if err := cfg.SetRunning(name, "n0"); err != nil {
			t.Fatal(err)
		}
	}
	rules := budgetRules(cfg, 10)
	if len(rules) != 3 {
		t.Fatalf("%d rules for 3 VMs", len(rules))
	}
	for _, r := range rules {
		if err := r.Check(cfg); err != nil {
			t.Errorf("Check on an overloaded configuration: %v", err)
		}
	}
	if (core.Problem{Src: cfg, Rules: rules}).Satisfied() {
		t.Error("the overloaded configuration counts as satisfied")
	}
	c := sim.New(cfg, duration.Default())
	ledger := monitor.WatchLedger(c, func() []core.PlacementRule { return rules })
	c.Schedule(100, func() {})
	c.Run(100)
	if ledger.Total() == 0 {
		t.Fatal("the ledger saw no violation: the test watches nothing")
	}
	if s := ledger.RuleBreachSeconds(); s != 0 {
		t.Errorf("%.1f rule-breach seconds booked against node budgets", s)
	}
}
