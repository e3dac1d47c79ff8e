package cp

import (
	"errors"
	"testing"
)

// NotEqualOffset is the constraint x != y + offset. It propagates once
// one side is bound. With offset 0 it is a plain disequality; offsets
// express diagonal constraints (n-queens). No production model posts
// it; the solver and oracle tests build their CSPs from it.
type NotEqualOffset struct {
	X, Y   *IntVar
	Offset int
}

// Vars returns the two operands.
func (c *NotEqualOffset) Vars() []*IntVar { return []*IntVar{c.X, c.Y} }

// Propagate removes the forbidden value from the unbound side.
func (c *NotEqualOffset) Propagate(s *Solver) error {
	if c.Y.Bound() {
		if err := s.RemoveValue(c.X, c.Y.Value()+c.Offset); err != nil {
			return err
		}
	}
	if c.X.Bound() {
		if err := s.RemoveValue(c.Y, c.X.Value()-c.Offset); err != nil {
			return err
		}
	}
	return nil
}

// packingProblem posts a Packing over nItems items and returns the
// assignment variables.
func packingProblem(s *Solver, weights, caps []int) []*IntVar {
	items := make([]*IntVar, len(weights))
	bins := rangeVals(len(caps))
	for i := range items {
		items[i] = s.NewEnumVar("item", bins)
	}
	s.Post(&Packing{Name: "mem", Items: items, Weights: weights, Capacity: caps})
	return items
}

func TestPackingFeasible(t *testing.T) {
	s := NewSolver()
	items := packingProblem(s, []int{5, 5, 5, 5}, []int{10, 10})
	sol, err := solveOne(s, Options{FirstFail: true})
	if err != nil {
		t.Fatal(err)
	}
	load := map[int]int{}
	for i, v := range items {
		load[sol.MustValue(v)] += []int{5, 5, 5, 5}[i]
	}
	for b, l := range load {
		if l > 10 {
			t.Fatalf("bin %d overloaded: %d", b, l)
		}
	}
}

func TestPackingInfeasible(t *testing.T) {
	s := NewSolver()
	packingProblem(s, []int{8, 8, 8}, []int{10, 10})
	if _, err := solveOne(s, Options{}); !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

func TestPackingPrunesTooHeavy(t *testing.T) {
	s := NewSolver()
	items := packingProblem(s, []int{9, 4}, []int{10, 5})
	if err := s.propagate(); err != nil {
		t.Fatal(err)
	}
	// Item 0 (weight 9) cannot go to bin 1 (cap 5).
	if items[0].Contains(1) {
		t.Fatal("bin 1 not pruned for heavy item")
	}
}

func TestPackingZeroWeightIgnored(t *testing.T) {
	s := NewSolver()
	items := packingProblem(s, []int{0, 0, 0}, []int{0})
	sol, err := solveOne(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range items {
		if sol.MustValue(v) != 0 {
			t.Fatal("zero-weight item rejected from zero-cap bin")
		}
	}
}

func TestPackingOverloadDetected(t *testing.T) {
	s := NewSolver()
	items := packingProblem(s, []int{7, 7}, []int{10, 20})
	if err := s.Assign(items[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(items[1], 0); err != nil {
		t.Fatal(err)
	}
	if err := s.propagate(); !errors.Is(err, ErrFailed) {
		t.Fatalf("overload not detected: %v", err)
	}
}

// TestMinimizePackingOptimum: minimize the index of the highest bin
// used, a classic makespan-flavored objective over the packing. The
// optimum packs everything into bin 0.
func TestMinimizePackingOptimum(t *testing.T) {
	s := NewSolver()
	items := packingProblem(s, []int{4, 3, 3}, []int{10, 10, 10})
	obj := s.NewIntVar("maxbin", 0, 2)
	s.Post(&FuncConstraint{On: append([]*IntVar{obj}, items...), Run: func(s *Solver) error {
		// obj >= max over items of min-bin still possible; prune item
		// bins above obj's max.
		for _, v := range items {
			if err := s.RemoveBelow(obj, v.Min()); err != nil {
				return err
			}
			if err := s.RemoveAbove(v, obj.Max()); err != nil {
				return err
			}
		}
		return nil
	}})
	sol, err := s.Minimize(obj, Options{Vars: items, FirstFail: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range items {
		if sol.MustValue(v) != 0 {
			t.Fatalf("item on bin %d, optimum packs all on bin 0", sol.MustValue(v))
		}
	}
	if sol.Objective != 0 {
		t.Fatalf("objective = %d", sol.Objective)
	}
}

func TestFuncConstraint(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", rangeVals(5))
	calls := 0
	fc := &FuncConstraint{On: []*IntVar{x}, Run: func(s *Solver) error {
		calls++
		return s.RemoveValue(x, 0)
	}}
	s.Post(fc)
	if got := len(fc.Vars()); got != 1 {
		t.Fatalf("Vars len = %d", got)
	}
	if err := s.propagate(); err != nil {
		t.Fatal(err)
	}
	if x.Contains(0) || calls == 0 {
		t.Fatal("func constraint did not run")
	}
}
