package core

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"cwcs/internal/cp"
	"cwcs/internal/vjob"
)

// panicRule places nothing: when its VM is in the model, it posts on
// every variable a propagator that panics once the solver has opened
// Nodes search nodes, the way a buggy rule or propagator would, so
// every worker meets it; with InCheck, its Check panics instead, which
// the seeds meet before any search.
type panicRule struct {
	VM      string
	Nodes   int64
	InCheck bool
}

func (r panicRule) Apply(s *cp.Solver, vars map[string]*cp.IntVar, _ map[string]int) error {
	if _, ok := vars[r.VM]; ok {
		s.Post(&cp.FuncConstraint{On: slices.Collect(maps.Values(vars)), Run: func(s *cp.Solver) error {
			if nodes, _, _, _ := s.Stats(); nodes >= r.Nodes {
				panic("rule " + r.VM + " broke")
			}
			return nil
		}})
	}
	return nil
}

func (r panicRule) Check(*vjob.Configuration) error {
	if r.InCheck {
		panic("rule " + r.VM + " broke")
	}
	return nil
}

func (r panicRule) ScopeVMs() []string  { return []string{r.VM} }
func (r panicRule) BindNodes() []string { return nil }

func (r panicRule) Rescope(vms, _ map[string]bool) PlacementRule {
	if !vms[r.VM] {
		return nil
	}
	return r
}

// TestPanickingRuleFailsTheSolve: a rule that panics in the middle of
// a search, or while the seeds are checked, fails the solve it runs
// in, with the panic in the error — on the caller's goroutine (one
// worker), in a portfolio goroutine (four) and in a slice goroutine
// (automatic partitioning, where the slice is then rejoined and the
// whole problem solved as one model, both of which panic too) — and
// the process goes on: the next solve, without the rule, returns a
// plan, and a one-worker solve that builds in the scratches the
// panicking solve left idle returns what it returns in fresh storage.
func TestPanickingRuleFailsTheSolve(t *testing.T) {
	clean := budgetedProblem(1, 48, 100)
	fresh := map[int]*Result{}
	inFreshStorage(func() {
		for _, parts := range []int{0, 1} {
			res, err := Optimizer{Workers: 1, Partitions: parts}.Solve(clean)
			if err != nil {
				t.Fatal(err)
			}
			fresh[parts] = res
		}
	})
	for _, o := range []Optimizer{
		{Workers: 1, Partitions: 1},
		{Workers: 4, Partitions: 1},
		{Workers: 4, Partitions: 0},
	} {
		for _, inCheck := range []bool{false, true} {
			p := clean
			vms := p.Src.VMs()
			vm := vms[len(vms)/2].Name
			p.Rules = append(p.Rules[:len(p.Rules):len(p.Rules)], panicRule{VM: vm, Nodes: 5, InCheck: inCheck})
			res, err := o.Solve(p)
			if err == nil || !strings.Contains(err.Error(), "panicked: rule "+vm+" broke") {
				t.Fatalf("%+v, in Check %t: result %v, error %v; want the panic as the error", o, inCheck, res, err)
			}
			next := Optimizer{Workers: 1, Partitions: o.Partitions}
			if res, err := next.Solve(clean); err != nil {
				t.Fatalf("%+v: the solve after the panic: %v", next, err)
			} else if why := sameResult(res, fresh[o.Partitions]); why != "" {
				t.Fatalf("%+v, in Check %t: the solve after the panic found %s than in fresh storage", next, inCheck, why)
			}
			if res, err := o.Solve(clean); err != nil || res.Plan == nil {
				t.Fatalf("%+v: the solve after the panic: %v", o, err)
			}
		}
	}
}
