package cp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

func rangeVals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// solveOne searches for one solution: Minimize over a one-value
// objective proves it optimal at its first solution.
func solveOne(s *Solver, opts Options) (Solution, error) {
	return s.Minimize(s.NewIntVar("one", 0, 0), opts)
}

// MustValue returns the solved value of v and panics when v was not a
// decision variable (a bug of the test).
func (s Solution) MustValue(v *IntVar) int {
	i := slices.Index(s.vars, v)
	if i < 0 {
		panic("cp: variable not part of the solution: " + v.name)
	}
	return s.Value(i)
}

// queens posts the n-queens problem and returns the column variables.
func queens(s *Solver, n int) []*IntVar {
	vars := make([]*IntVar, n)
	for i := range vars {
		vars[i] = s.NewEnumVar(fmt.Sprintf("q%d", i), rangeVals(n))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.Post(&NotEqualOffset{X: vars[i], Y: vars[j]})
			s.Post(&NotEqualOffset{X: vars[i], Y: vars[j], Offset: j - i})
			s.Post(&NotEqualOffset{X: vars[i], Y: vars[j], Offset: i - j})
		}
	}
	return vars
}

func TestNQueensSolvable(t *testing.T) {
	for _, n := range []int{4, 6, 8, 10} {
		s := NewSolver()
		vars := queens(s, n)
		sol, err := solveOne(s, Options{FirstFail: true})
		if err != nil {
			t.Fatalf("%d-queens: %v", n, err)
		}
		// Verify the solution.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := sol.MustValue(vars[i]), sol.MustValue(vars[j])
				if a == b || a == b+(j-i) || a == b-(j-i) {
					t.Fatalf("%d-queens: conflict between %d and %d", n, i, j)
				}
			}
		}
	}
}

func TestNQueensUnsolvable(t *testing.T) {
	s := NewSolver()
	queens(s, 3)
	if _, err := solveOne(s, Options{}); !errors.Is(err, ErrFailed) {
		t.Fatalf("3-queens err = %v, want ErrFailed", err)
	}
	nodes, fails, _, props := s.Stats()
	if nodes == 0 || fails == 0 || props == 0 {
		t.Fatal("stats not counted")
	}
}

// expiredContext returns a context whose deadline has already passed.
func expiredContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

func TestSolveDeadline(t *testing.T) {
	s := NewSolver()
	queens(s, 24)
	_, err := solveOne(s, Options{Ctx: expiredContext(t)})
	if !errors.Is(err, ErrCanceled) || !Stopped(err) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestAssignAndPropagate(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{0, 1, 2})
	y := s.NewEnumVar("y", []int{0, 1, 2})
	s.Post(&NotEqualOffset{X: x, Y: y})
	if err := s.Assign(x, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.propagate(); err != nil {
		t.Fatal(err)
	}
	if y.Contains(1) {
		t.Fatal("disequality not propagated")
	}
	if err := s.Assign(x, 2); !errors.Is(err, ErrFailed) {
		t.Fatalf("reassigning bound var: %v", err)
	}
}

func TestDomainWipeoutFails(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{4})
	if err := s.RemoveValue(x, 4); !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

func TestPreferredValueOrder(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{0, 1, 2, 3})
	x.SetPreferred(2)
	sol, err := solveOne(s, Options{PreferValue: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.MustValue(x); got != 2 {
		t.Fatalf("x = %d, want preferred 2", got)
	}
	// Without PreferValue the first (ascending) value wins.
	s2 := NewSolver()
	y := s2.NewEnumVar("y", []int{0, 1, 2, 3})
	y.SetPreferred(2)
	sol2, err := solveOne(s2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol2.MustValue(y); got != 0 {
		t.Fatalf("y = %d, want 0", got)
	}
}

func TestFirstFailPicksSmallestDomain(t *testing.T) {
	s := NewSolver()
	big := s.NewEnumVar("big", rangeVals(10))
	small := s.NewEnumVar("small", rangeVals(2))
	v := s.pick(&run{Options: Options{FirstFail: true}, vars: []*IntVar{big, small}})
	if v != small {
		t.Fatalf("first-fail picked %s", v.Name())
	}
	v = s.pick(&run{vars: []*IntVar{big, small}})
	if v != big {
		t.Fatalf("static order picked %s", v.Name())
	}
}

func TestMinimizeFindsOptimum(t *testing.T) {
	// Minimize x+y subject to x != y, x,y in 0..3. Optimum 0+1 = 1.
	s := NewSolver()
	x := s.NewEnumVar("x", rangeVals(4))
	y := s.NewEnumVar("y", rangeVals(4))
	obj := s.NewIntVar("obj", 0, 100)
	s.Post(&NotEqualOffset{X: x, Y: y})
	s.Post(&FuncConstraint{
		On: []*IntVar{x, y, obj},
		Run: func(s *Solver) error {
			return s.RemoveBelow(obj, x.Min()+y.Min())
		},
	})
	sol, err := s.Minimize(obj, Options{Vars: []*IntVar{x, y}, FirstFail: true})
	if err != nil {
		t.Fatal(err)
	}
	got := sol.MustValue(x) + sol.MustValue(y)
	if got != 1 {
		t.Fatalf("optimum = %d, want 1", got)
	}
	if sol.Objective > 1 {
		t.Fatalf("objective = %d", sol.Objective)
	}
}

func TestMinimizeUnsatisfiable(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{1})
	y := s.NewEnumVar("y", []int{1})
	obj := s.NewIntVar("obj", 0, 10)
	s.Post(&NotEqualOffset{X: x, Y: y})
	if _, err := s.Minimize(obj, Options{Vars: []*IntVar{x, y}}); !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

func TestMinimizeDeadlineKeepsBest(t *testing.T) {
	// A problem with many solutions and a deadline generous enough to
	// find one but likely too short to prove optimality is hard to
	// build deterministically; instead check the already-expired case.
	s := NewSolver()
	x := s.NewEnumVar("x", rangeVals(8))
	obj := s.NewIntVar("obj", 0, 10)
	s.Post(&FuncConstraint{On: []*IntVar{x, obj}, Run: func(s *Solver) error {
		return s.RemoveBelow(obj, x.Min())
	}})
	_, err := s.Minimize(obj, Options{Vars: []*IntVar{x}, Ctx: expiredContext(t)})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestSequentialCancel: a canceled context stops Minimize before the
// first node.
func TestSequentialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, vars, obj := buildBinPacking(1, 8, 4)
	if _, err := s.Minimize(obj, Options{Vars: vars, Ctx: ctx}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Minimize err = %v, want ErrCanceled", err)
	}
	if nodes, _, _, _ := s.Stats(); nodes != 0 {
		t.Fatalf("%d nodes searched under a canceled context", nodes)
	}
}

// TestCancelLandsAtTheNextFail: a search that fails 199 tries per
// node, canceled inside its eleventh try, stops as that try fails: the
// search polls the context after every fail as well as every 64 nodes.
func TestCancelLandsAtTheNextFail(t *testing.T) {
	s := NewSolver()
	vars := make([]*IntVar, 10)
	for i := range vars {
		vars[i] = s.NewEnumVar(fmt.Sprintf("x%d", i), rangeVals(200))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Post(&FuncConstraint{On: vars, Run: func(s *Solver) error {
		if _, fails, _, _ := s.Stats(); fails == 10 {
			cancel()
		}
		for _, v := range vars {
			if v.Bound() && v.Value() != 199 {
				return ErrFailed
			}
		}
		return nil
	}})
	if _, err := solveOne(s, Options{Vars: vars, Ctx: ctx}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if nodes, fails, _, _ := s.Stats(); fails != 11 {
		t.Fatalf("stopped after %d nodes and %d fails, want the poll after fail 11", nodes, fails)
	}
}

func TestSolutionAccessors(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{7})
	other := s.NewEnumVar("other", []int{1, 2})
	sol, err := solveOne(s, Options{Vars: []*IntVar{x}})
	if err != nil {
		t.Fatal(err)
	}
	if v, w := sol.Value(0), sol.MustValue(x); v != 7 || w != 7 {
		t.Fatalf("Value(0) = %d, MustValue = %d", v, w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustValue on absent var did not panic")
		}
	}()
	sol.MustValue(other)
}

func TestVarStringForms(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{3})
	if x.String() != "x=3" {
		t.Fatalf("bound var string = %q", x.String())
	}
	y := s.NewEnumVar("y", rangeVals(4))
	if y.String() == "" {
		t.Fatal("small var string empty")
	}
	z := s.NewEnumVar("z", rangeVals(100))
	if z.String() == "" {
		t.Fatal("large var string empty")
	}
}

func TestValuePanicsOnUnbound(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Value on unbound var did not panic")
		}
	}()
	_ = x.Value()
}

func TestNewVarPanics(t *testing.T) {
	s := NewSolver()
	func() {
		defer func() { recover() }()
		s.NewEnumVar("bad", nil)
		t.Error("empty enum domain accepted")
	}()
	func() {
		defer func() { recover() }()
		s.NewIntVar("bad", 5, 4)
		t.Error("empty range accepted")
	}()
}
