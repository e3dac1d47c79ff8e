package cp

import (
	"errors"
	"testing"
)

func TestAllDifferentBasic(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{0, 1})
	y := s.NewEnumVar("y", []int{0, 1})
	z := s.NewEnumVar("z", []int{0, 1, 2})
	s.Post(&AllDifferent{Items: []*IntVar{x, y, z}})
	sol, err := solveOne(s, Options{FirstFail: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[int]bool{}
	for _, v := range []*IntVar{x, y, z} {
		vals[sol.MustValue(v)] = true
	}
	if len(vals) != 3 {
		t.Fatalf("not all different: %v", vals)
	}
}

func TestAllDifferentHallPruning(t *testing.T) {
	// x,y ∈ {0,1} form a Hall set: z must lose 0 and 1 at the root.
	s := NewSolver()
	x := s.NewEnumVar("x", []int{0, 1})
	y := s.NewEnumVar("y", []int{0, 1})
	z := s.NewEnumVar("z", []int{0, 1, 2})
	s.Post(&AllDifferent{Items: []*IntVar{x, y, z}})
	if err := s.propagate(); err != nil {
		t.Fatal(err)
	}
	if z.Contains(0) || z.Contains(1) {
		t.Fatalf("Hall set not pruned: z = %v", z.Values())
	}
	if !z.Bound() || z.Value() != 2 {
		t.Fatalf("z = %v", z.Values())
	}
}

func TestAllDifferentPigeonhole(t *testing.T) {
	s := NewSolver()
	var items []*IntVar
	for i := 0; i < 3; i++ {
		items = append(items, s.NewEnumVar("v", []int{4, 7}))
	}
	s.Post(&AllDifferent{Items: items})
	if err := s.propagate(); !errors.Is(err, ErrFailed) {
		t.Fatalf("pigeonhole not detected: %v", err)
	}
}

func TestAllDifferentBoundConflict(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{5})
	y := s.NewEnumVar("y", []int{5})
	s.Post(&AllDifferent{Items: []*IntVar{x, y}})
	if err := s.propagate(); !errors.Is(err, ErrFailed) {
		t.Fatalf("bound conflict not detected: %v", err)
	}
}

func TestAllDifferentValueEliminationCascade(t *testing.T) {
	// Binding x=0 forces y=1 which forces z=2.
	s := NewSolver()
	x := s.NewEnumVar("x", []int{0})
	y := s.NewEnumVar("y", []int{0, 1})
	z := s.NewEnumVar("z", []int{1, 2})
	s.Post(&AllDifferent{Items: []*IntVar{x, y, z}})
	if err := s.propagate(); err != nil {
		t.Fatal(err)
	}
	if !y.Bound() || y.Value() != 1 || !z.Bound() || z.Value() != 2 {
		t.Fatalf("cascade incomplete: y=%v z=%v", y.Values(), z.Values())
	}
}

func TestAllDifferentLatinSquare(t *testing.T) {
	// A 4x4 Latin square: rows and columns all-different. Exercises
	// the propagator inside real search.
	const n = 4
	s := NewSolver()
	grid := make([][]*IntVar, n)
	for r := range grid {
		grid[r] = make([]*IntVar, n)
		for c := range grid[r] {
			grid[r][c] = s.NewEnumVar("cell", rangeVals(n))
		}
	}
	for i := 0; i < n; i++ {
		row := make([]*IntVar, n)
		col := make([]*IntVar, n)
		for j := 0; j < n; j++ {
			row[j] = grid[i][j]
			col[j] = grid[j][i]
		}
		s.Post(&AllDifferent{Items: row})
		s.Post(&AllDifferent{Items: col})
	}
	// Pin the first row to break symmetry.
	for j := 0; j < n; j++ {
		if err := s.Assign(grid[0][j], j); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := solveOne(s, Options{FirstFail: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rowSeen := map[int]bool{}
		colSeen := map[int]bool{}
		for j := 0; j < n; j++ {
			rowSeen[sol.MustValue(grid[i][j])] = true
			colSeen[sol.MustValue(grid[j][i])] = true
		}
		if len(rowSeen) != n || len(colSeen) != n {
			t.Fatalf("row/col %d not a permutation", i)
		}
	}
}
