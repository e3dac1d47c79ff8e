package main

import (
	"cwcs/internal/core"
	"cwcs/internal/cp"
	"cwcs/internal/vjob"
)

// nodeBudget bounds one solve to a fixed number of search nodes, so a
// solve is the same amount of work on every run and every machine. It
// is a placement rule that constrains nothing: Apply posts a propagator
// on its VM's variable that answers cp.ErrCanceled once the solver has
// opened Nodes search nodes, which core.Optimizer treats like an
// expired deadline and returns its incumbent. One rule covers one VM,
// so the partitioner hands every slice the rules of its own VMs and
// each slice model gets the whole budget. A search stops on its
// Nodes-th node, or on the next when that node is a leaf (a leaf binds
// nothing, so no propagator runs before the following branch); either
// way the same instance stops at the same node every time.
//
// Known limit: this rides on a propagator's error reaching the
// optimizer unchanged; ROADMAP item 1(d) asks for a real node limit in
// cp.Options. nodebudget_test.go fails if that path ever breaks.
type nodeBudget struct {
	VM    string
	Nodes int64
}

// budgetRules returns one nodeBudget per VM of the configuration.
func budgetRules(cfg *vjob.Configuration, nodes int64) []core.PlacementRule {
	vms := cfg.VMs()
	rules := make([]core.PlacementRule, len(vms))
	for i, v := range vms {
		rules[i] = nodeBudget{VM: v.Name, Nodes: nodes}
	}
	return rules
}

func (r nodeBudget) Apply(s *cp.Solver, vars map[string]*cp.IntVar, _ map[string]int) error {
	v, ok := vars[r.VM]
	if !ok {
		return nil
	}
	s.Post(&cp.FuncConstraint{
		On: []*cp.IntVar{v},
		Run: func(s *cp.Solver) error {
			if nodes, _, _, _ := s.Stats(); nodes >= r.Nodes {
				return cp.ErrCanceled
			}
			return nil
		},
	})
	return nil
}

// Check accepts every configuration: the budget limits search effort,
// not placement, so it never counts as a breached rule.
func (r nodeBudget) Check(*vjob.Configuration) error { return nil }

func (r nodeBudget) ScopeVMs() []string  { return []string{r.VM} }
func (r nodeBudget) BindNodes() []string { return nil }

func (r nodeBudget) Rescope(vms, _ map[string]bool) core.PlacementRule {
	if !vms[r.VM] {
		return nil
	}
	return r
}
