package cp

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// buildBinPacking builds a §4.3-flavoured instance: items with weights
// packed onto bins under capacity, minimizing a weighted placement
// cost. Hard enough to need a real search, small enough for the suite
// to prove optimality quickly.
func buildBinPacking(seed int64, items, bins int) (*Solver, []*IntVar, *IntVar) {
	rng := rand.New(rand.NewSource(seed))
	s := NewSolver()
	vars := make([]*IntVar, items)
	weights := make([]int, items)
	coefs := make([]int, items)
	all := make([]int, bins)
	for b := range all {
		all[b] = b
	}
	for i := range vars {
		vars[i] = s.NewEnumVar(fmt.Sprintf("item%d", i), all)
		vars[i].SetPreferred(rng.Intn(bins))
		weights[i] = 1 + rng.Intn(4)
		coefs[i] = rng.Intn(3)
	}
	capacity := make([]int, bins)
	for b := range capacity {
		capacity[b] = 4 + rng.Intn(4)
	}
	s.Post(&Packing{Name: "cap", Items: vars, Weights: weights, Capacity: capacity})
	maxObj := 0
	for i := range vars {
		maxObj += coefs[i] * (bins - 1)
	}
	obj := s.NewIntVar("obj", 0, maxObj)
	s.Post(weightedSum(vars, coefs, obj))
	return s, vars, obj
}

// TestPortfolioDeterministicOptimum: the proven optimum does not
// depend on which portfolio strategy searched for it — the paper's
// ordering, its ablations and a shuffled value order explore the same
// space — so any one worker's proof settles a race (TestOracleMinimize
// checks the first of them against brute force).
func TestPortfolioDeterministicOptimum(t *testing.T) {
	strategies := []struct {
		label string
		opts  Options
	}{
		{"firstfail+prefer", Options{FirstFail: true, PreferValue: true}},
		{"firstfail", Options{FirstFail: true}},
		{"naive+prefer", Options{PreferValue: true}},
		{"naive", Options{}},
		{"shuffle#4", Options{FirstFail: true, PreferValue: true, ShuffleSeed: 4}},
	}
	for seed := int64(1); seed <= 8; seed++ {
		want, unsat := -1, false
		for i, st := range strategies {
			s, vars, obj := buildBinPacking(seed, 8, 4)
			opts := st.opts
			opts.Vars = vars
			best, err := s.Minimize(obj, opts)
			switch {
			case err != nil && !errors.Is(err, ErrFailed):
				t.Fatalf("seed %d %s: %v", seed, st.label, err)
			case i == 0:
				want, unsat = best.Objective, err != nil
			case unsat != (err != nil):
				t.Fatalf("seed %d %s: unsat = %v, %s said %v", seed, st.label, err != nil, strategies[0].label, unsat)
			case !unsat && best.Objective != want:
				t.Fatalf("seed %d %s: optimum %d, %s found %d", seed, st.label, best.Objective, strategies[0].label, want)
			}
		}
	}
}

// TestIncumbent covers the atomic bound.
func TestIncumbent(t *testing.T) {
	b := NewIncumbent(10)
	if b.Bound() != 10 {
		t.Fatalf("bound = %d", b.Bound())
	}
	if !b.Tighten(7) || b.Bound() != 7 {
		t.Fatal("Tighten(7) should improve")
	}
	if b.Tighten(9) || b.Bound() != 7 {
		t.Fatal("Tighten(9) must not loosen")
	}
	if b.Tighten(7) {
		t.Fatal("equal value is not an improvement")
	}
}

// TestSearchAdoptsSharedBoundMidSearch: the 64-node poll inside
// Minimize's search installs an incumbent tightened while the search
// is running. No goroutines: a propagator lowers the Incumbent itself
// once the search has explored 100 nodes. Every leaf of the model
// fails, so the first dive walks the whole tree unless something
// prunes it, and nothing but the poll ever lowers the objective's
// upper bound within it (its propagator only raises the lower bound,
// like core's cost bound).
func TestSearchAdoptsSharedBoundMidSearch(t *testing.T) {
	const items, tightenAt, tightenTo = 10, 100, 2
	run := func(share bool) (nodes int64, sawCut bool) {
		s := NewSolver()
		vars := make([]*IntVar, items)
		for i := range vars {
			vars[i] = s.NewEnumVar(fmt.Sprintf("x%d", i), []int{0, 1})
			vars[i].SetPreferred(1) // the expensive side of the tree first
		}
		obj := s.NewIntVar("obj", 0, items)
		incumbent := NewIncumbent(items)
		s.Post(&FuncConstraint{On: append([]*IntVar{obj}, vars...), Run: func(s *Solver) error {
			if n, _, _, _ := s.Stats(); n >= tightenAt {
				incumbent.Tighten(tightenTo)
				sawCut = sawCut || obj.Max() <= tightenTo
			}
			ones, unbound := 0, 0
			for _, v := range vars {
				ones += v.Min()
				if !v.Bound() {
					unbound++
				}
			}
			if unbound == 0 {
				return ErrFailed
			}
			return s.RemoveBelow(obj, ones)
		}})
		opts := Options{Vars: vars, PreferValue: true}
		if share {
			opts.SharedBound = incumbent
		}
		if _, err := s.Minimize(obj, opts); !errors.Is(err, ErrFailed) {
			t.Fatalf("share=%v: err = %v, want ErrFailed (every leaf fails)", share, err)
		}
		nodes, _, _, _ = s.Stats()
		return nodes, sawCut
	}
	full, sawCut := run(false)
	if sawCut {
		t.Fatal("the objective's upper bound moved without a shared bound")
	}
	if full != 1<<items-1 {
		t.Fatalf("unpruned search explored %d nodes, want the whole tree (%d)", full, 1<<items-1)
	}
	pruned, sawCut := run(true)
	if !sawCut {
		t.Fatal("the search never installed the tightened bound on the objective")
	}
	if pruned <= tightenAt || pruned >= full {
		t.Fatalf("search with a bound tightened at node %d explored %d nodes, want fewer than the whole tree (%d)", tightenAt, pruned, full)
	}
}
