package cp

import (
	"fmt"
	"testing"
)

// largeModel is larger than any model TestResetSolverMatchesFresh
// rebuilds: 30 variables of 200 values (four slab words each) under
// pairwise difference, searched to a node budget, so that it leaves
// every slab window full of bits, frames open on the trail, and long
// watcher lists and queue behind.
func largeModel(s *Solver) searchModel {
	vals := rangeVals(200)
	vars := make([]*IntVar, 30)
	for i := range vars {
		vars[i] = s.NewEnumVar(fmt.Sprintf("l%d", i), vals)
	}
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			s.Post(&NotEqualOffset{X: vars[i], Y: vars[j]})
		}
	}
	s.Post(nodeBudget(vars, 300))
	return searchModel{s: s, vars: vars, obj: s.NewIntVar("lobj", 0, 0), opts: Options{Vars: vars, FirstFail: true}}
}

// TestResetSolverMatchesFresh: a model built on a solver that Reset
// emptied searches exactly as on a new solver — the same nodes, fails,
// solutions, propagator runs and solution values — for n-queens and the
// seeded packing + table-sum models, built after a larger model was
// built and searched on the solver, or after the model before.
func TestResetSolverMatchesFresh(t *testing.T) {
	used := NewSolver()
	v := used.NewEnumVar("v", []int{1})
	if used.Reset(); used.NewIntVar("w", 0, 1) != v {
		t.Fatal("Reset kept no variable to recycle")
	}
	models := 0
	check := func(name string, build func(*Solver) searchModel) {
		t.Helper()
		if models++; models%2 == 1 {
			used.Reset()
			runSearch(largeModel(used), false)
		}
		used.Reset()
		if n, f, sols, props := used.Stats(); n+f+sols+props != 0 || len(used.frames)+len(used.trail) != 0 {
			t.Fatalf("%s: a reset solver reports %d nodes, %d fails, %d solutions, %d propagations and %d frames",
				name, n, f, sols, props, len(used.frames))
		}
		requireSameRun(t, name, runSearch(build(used), false), runSearch(build(NewSolver()), false), "new solver")
	}
	for n := 4; n <= 9; n++ {
		for variant := range 4 {
			check(fmt.Sprintf("%d-queens variant %d", n, variant), func(s *Solver) searchModel {
				return queensModel(s, n, variant)
			})
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		check(fmt.Sprintf("packing seed %d", seed), func(s *Solver) searchModel {
			return packingModel(s, seed)
		})
	}
}
