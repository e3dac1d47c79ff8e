package cp

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refTableSum is TableSum as the reconfiguration cost bound ran before
// it learned which variables changed (core's costBound closure,
// restated over the constraint's fields): every run finds each item's
// cheapest value from the start of its order and walks the order from
// its expensive end.
type refTableSum struct {
	obj          *IntVar
	items        []*IntVar
	fixed        int
	rows, orders [][]int32
	mins         []int
}

func (c *refTableSum) Vars() []*IntVar { return append([]*IntVar{c.obj}, c.items...) }

func (c *refTableSum) Propagate(s *Solver) error {
	lb := c.fixed
	for i, v := range c.items {
		row := c.rows[i]
		if v.Bound() {
			c.mins[i] = int(row[v.Min()])
		} else {
			for _, val := range c.orders[i] {
				if v.Contains(int(val)) {
					c.mins[i] = int(row[val])
					break
				}
			}
		}
		lb += c.mins[i]
	}
	if err := s.RemoveBelow(c.obj, lb); err != nil {
		return err
	}
	slack := c.obj.Max() - lb
	for i, v := range c.items {
		if v.Bound() {
			continue
		}
		row, order := c.rows[i], c.orders[i]
		for k := len(order) - 1; k >= 0 && int(row[order[k]])-c.mins[i] > slack; k-- {
			if err := s.RemoveValue(v, int(order[k])); err != nil {
				return err
			}
		}
	}
	return nil
}

// deltaModel is a random packing + table-sum model: items over up to
// 130 bins (so masks cross word edges) or over a handful, some values
// naming bins that do not exist, two weight dimensions with zero
// weights among them, and a cost table over every value.
type deltaModel struct {
	domains      [][]int
	weights      [2][]int
	capacity     [2][]int
	rows, orders [][]int32
	fixed, top   int
}

func newDeltaModel(rng *rand.Rand) deltaModel {
	nbins, nvals, few := 1+rng.Intn(130), 0, rng.Intn(4) == 0
	switch {
	case few: // every value a bin, and more weight than room now and then
		nbins = 2 + rng.Intn(3)
		nvals = nbins
	case rng.Intn(3) == 0:
		nbins = []int{1, 63, 64, 65, 127, 128, 129}[rng.Intn(7)]
		fallthrough
	default:
		nvals = nbins + rng.Intn(3)
	}
	n := 1 + rng.Intn(10)
	m := deltaModel{domains: make([][]int, n), rows: make([][]int32, n), orders: make([][]int32, n), fixed: rng.Intn(10)}
	m.top = m.fixed
	for d := range m.weights {
		m.weights[d] = make([]int, n)
		m.capacity[d] = make([]int, nbins)
		for b := range m.capacity[d] {
			m.capacity[d][b] = rng.Intn(12)
			if few {
				m.capacity[d][b] = 3 + rng.Intn(6)
			}
			if rng.Intn(500) == 0 {
				m.capacity[d][b] = -1 // overloaded empty
			}
		}
	}
	for i := range n {
		keep := 1 + rng.Intn(9)
		for val := range nvals {
			if rng.Intn(10) < keep {
				m.domains[i] = append(m.domains[i], val)
			}
		}
		if len(m.domains[i]) == 0 {
			m.domains[i] = []int{rng.Intn(nvals)}
		}
		for d := range m.weights {
			m.weights[d][i] = rng.Intn(1 + rng.Intn(7))
			if few {
				m.weights[d][i] = 1 + rng.Intn(3)
			}
		}
		row := make([]int32, nvals)
		for _, val := range m.domains[i] {
			row[val] = int32(rng.Intn(20))
			m.orders[i] = append(m.orders[i], int32(val))
		}
		m.rows[i] = row
		slices.SortStableFunc(m.orders[i], func(a, b int32) int { return cmp.Compare(row[a], row[b]) })
		m.top += int(row[m.orders[i][len(m.orders[i])-1]])
	}
	return m
}

// build posts the model on s (nil: a new solver), with the
// constraints under test or, when ref, the references.
func (m deltaModel) build(s *Solver, ref bool) (*Solver, []*IntVar, *IntVar) {
	if s == nil {
		s = NewSolver()
	}
	items := make([]*IntVar, len(m.domains))
	for i, dom := range m.domains {
		items[i] = s.NewEnumVar(fmt.Sprintf("x%d", i), dom)
	}
	obj := s.NewIntVar("obj", 0, m.top)
	for d := range m.weights {
		if ref {
			s.Post(&maskPacking{Items: items, Weights: m.weights[d], Capacity: m.capacity[d]})
		} else {
			s.Post(&Packing{Items: items, Weights: m.weights[d], Capacity: m.capacity[d]})
		}
	}
	if ref {
		s.Post(&refTableSum{obj: obj, items: items, fixed: m.fixed, rows: m.rows, orders: m.orders, mins: make([]int, len(items))})
	} else {
		s.Post(&TableSum{Obj: obj, Items: items, Fixed: m.fixed, Rows: m.rows, Orders: m.orders})
	}
	return s, items, obj
}

// runDelta builds the model of seed twice, drives both through the
// operations ops spells — assignments, removals, cuts of the
// objective, saves, restores and propagations, a failed state restored
// before anything else — and requires, at every fixpoint, the same
// verdict after the same number of propagator runs and, on success,
// the same domains. It returns how many fixpoints held and failed.
func runDelta(t testing.TB, seed int64, ops []byte) (held, failed int) {
	t.Helper()
	m := newDeltaModel(rand.New(rand.NewSource(seed)))
	s, items, obj := m.build(nil, false)
	ref, refItems, refObj := m.build(nil, true)
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := int(ops[0])
		ops = ops[1:]
		return b
	}
	type saved struct{ st, ref State }
	var stack []saved
	broken := false // a failed state, which only a restore leaves
	both := func(err, refErr error) {
		if (err == nil) != (refErr == nil) {
			t.Fatalf("seed %d: %v, reference %v", seed, err, refErr)
		}
		broken = broken || err != nil
	}
	fixpoint := func() {
		err, refErr := s.propagate(), ref.propagate()
		_, _, _, runs := s.Stats()
		_, _, _, refRuns := ref.Stats()
		if errors.Is(err, ErrFailed) != errors.Is(refErr, ErrFailed) || runs != refRuns {
			t.Fatalf("seed %d: verdict %v after %d runs, reference %v after %d", seed, err, runs, refErr, refRuns)
		}
		if err != nil {
			broken = true
			failed++
			return
		}
		for i := range items {
			if got, want := items[i].Values(), refItems[i].Values(); !slices.Equal(got, want) {
				t.Fatalf("seed %d: %s = %v, reference %v", seed, items[i].Name(), got, want)
			}
		}
		if obj.Min() != refObj.Min() || obj.Max() != refObj.Max() {
			t.Fatalf("seed %d: objective [%d,%d], reference [%d,%d]", seed, obj.Min(), obj.Max(), refObj.Min(), refObj.Max())
		}
		held++
	}
	for len(ops) > 0 {
		op, i := next()%8, next()%len(items)
		if broken && op != 5 {
			continue
		}
		switch op {
		case 0, 1: // bind an item to one of its values
			vals := items[i].Values()
			val := vals[next()%len(vals)]
			both(s.Assign(items[i], val), ref.Assign(refItems[i], val))
		case 2: // remove one of its values
			vals := items[i].Values()
			val := vals[next()%len(vals)]
			both(s.RemoveValue(items[i], val), ref.RemoveValue(refItems[i], val))
		case 3: // cut the objective
			bound := obj.Min() + next()*(obj.Max()-obj.Min()+1)/256
			both(s.RemoveAbove(obj, bound), ref.RemoveAbove(refObj, bound))
		case 4:
			stack = append(stack, saved{s.SaveState(), ref.SaveState()})
		case 5: // restore the last save, as the search does, and sometimes drop it
			if len(stack) == 0 {
				if broken {
					return held, failed
				}
				continue
			}
			top := stack[len(stack)-1]
			s.RestoreState(top.st)
			ref.RestoreState(top.ref)
			broken = false
			if next()%2 == 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			fixpoint()
		}
	}
	if !broken {
		fixpoint()
	}
	return held, failed
}

// FuzzDeltaPropagation drives random packing + table-sum models through
// Packing and TableSum, which keep sums between runs, and through the
// forms that recompute everything on every run (maskPacking, Packing as
// it was before, and refTableSum, the cost bound as it was), under an
// arbitrary interleaving of domain operations, saves, restores and
// propagations: every fixpoint must agree.
func FuzzDeltaPropagation(f *testing.F) {
	f.Add(int64(1), []byte{7, 0, 4, 0, 1, 3, 7, 0, 5, 0, 1, 7, 0})
	f.Add(int64(2), []byte{4, 0, 0, 2, 9, 6, 0, 3, 1, 40, 7, 0, 5, 1, 0, 6, 0})
	f.Add(int64(3), []byte{4, 0, 7, 0, 3, 0, 90, 7, 0, 5, 0, 0, 7, 0, 1, 0, 2, 7, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		runDelta(t, seed, ops)
	})
}

// TestDeltaPropagationMatchesReference runs FuzzDeltaPropagation's
// check over 600 seeded models and operation strings, and requires the
// strings to reach both verdicts often.
func TestDeltaPropagationMatchesReference(t *testing.T) {
	held, failed := 0, 0
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(-seed))
		ops := make([]byte, 40+rng.Intn(80))
		for k := range ops {
			ops[k] = byte(rng.Intn(256))
		}
		// Save first on every other seed, so later restores reach the
		// root that was never propagated, as Minimize's restarts do.
		if seed%2 == 0 {
			ops = append([]byte{4, 0}, ops...)
		}
		h, f := runDelta(t, seed, ops)
		held, failed = held+h, failed+f
	}
	if held < 1000 || failed < 300 {
		t.Fatalf("%d fixpoints held, %d failed: the generator no longer exercises both verdicts", held, failed)
	}
}
