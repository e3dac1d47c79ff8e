package cp

import "testing"

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
	hints := map[*IntVar]int{vars[0]: 1, vars[1]: 2, vars[2]: 3}
	sol, err := s.Minimize(obj, Options{Vars: vars, Hints: hints})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 3 {
		t.Fatalf("objective = %d, want 3", sol.Objective)
	}
}

func TestHintsSteerValueOrder(t *testing.T) {
	s := NewSolver()
	v := s.NewEnumVar("v", []int{0, 1, 2, 3})
	v.SetPreferred(1)
	order := s.valueOrder(v, &run{Options: Options{PreferValue: true, Hints: map[*IntVar]int{v: 2}}}, nil)
	if order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v, want hint 2 first then preferred 1", order)
	}
	seen := map[int]int{}
	for _, val := range order {
		seen[val]++
	}
	if len(order) != 4 || seen[0] != 1 || seen[1] != 1 || seen[2] != 1 || seen[3] != 1 {
		t.Fatalf("order %v lost or duplicated values", order)
	}
	// A hint equal to the preferred value must not duplicate it.
	order = s.valueOrder(v, &run{Options: Options{PreferValue: true, Hints: map[*IntVar]int{v: 1}}}, nil)
	if order[0] != 1 || len(order) != 4 {
		t.Fatalf("order = %v, want preferred/hinted 1 first, no duplicates", order)
	}
}
