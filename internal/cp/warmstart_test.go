package cp

import (
	"errors"
	"slices"
	"testing"
)

// sumEquals binds obj to the sum of vars.
func sumEquals(vars []*IntVar, obj *IntVar) Constraint {
	return &FuncConstraint{
		On: append([]*IntVar{obj}, vars...),
		Run: func(s *Solver) error {
			lo, hi := 0, 0
			for _, v := range vars {
				lo += v.Min()
				hi += v.Max()
			}
			if err := s.RemoveBelow(obj, lo); err != nil {
				return err
			}
			return s.RemoveAbove(obj, hi)
		},
	}
}

// warmModel builds a small weighted-assignment minimization: three
// enumerated variables, an AllDifferent, and an objective equal to the
// sum of the chosen values.
func warmModel(t *testing.T) (*Solver, []*IntVar, *IntVar) {
	t.Helper()
	s := NewSolver()
	vars := []*IntVar{
		s.NewEnumVar("a", []int{0, 1, 2, 3}),
		s.NewEnumVar("b", []int{0, 1, 2, 3}),
		s.NewEnumVar("c", []int{0, 1, 2, 3}),
	}
	s.Post(&AllDifferent{Items: vars})
	obj := s.NewIntVar("obj", 0, 9)
	s.Post(sumEquals(vars, obj))
	return s, vars, obj
}

func TestMinimizeWithHintsFindsOptimum(t *testing.T) {
	s, vars, obj := warmModel(t)
	// Hint the worst assignment: the search dives to objective 1+2+3
	// first and must still reach the optimum 0+1+2.
	for i, v := range vars {
		v.SetHint(i + 1)
	}
	sol, err := s.Minimize(obj, Options{Vars: vars})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 3 {
		t.Fatalf("objective = %d, want 3", sol.Objective)
	}
}

// TestHintsSteerValueOrder: a node tries the hint first, then the
// preferred value, then the rest ascending, each value once. Every
// assignment fails, so the search walks the whole order; the last
// value is bound by the refutation of the one before it.
func TestHintsSteerValueOrder(t *testing.T) {
	for _, tc := range []struct {
		hint int
		want []int
	}{
		{2, []int{2, 1, 0, 3}},
		{1, []int{1, 0, 2, 3}},  // a hint equal to the preferred value
		{7, []int{1, 0, 2, 3}},  // a hint outside the domain
		{-1, []int{1, 0, 2, 3}}, // no hint
	} {
		s := NewSolver()
		v := s.NewEnumVar("v", []int{0, 1, 2, 3})
		v.SetPreferred(1)
		v.SetHint(tc.hint)
		var tried []int
		s.Post(&FuncConstraint{On: []*IntVar{v}, Run: func(*Solver) error {
			if v.Bound() {
				tried = append(tried, v.Value())
				return ErrFailed
			}
			return nil
		}})
		if _, err := solveOne(s, Options{Vars: []*IntVar{v}, PreferValue: true}); !errors.Is(err, ErrFailed) {
			t.Fatalf("hint %d: err = %v, want ErrFailed", tc.hint, err)
		}
		if !slices.Equal(tried, tc.want) {
			t.Fatalf("hint %d: tried %v, want %v", tc.hint, tried, tc.want)
		}
	}
}
