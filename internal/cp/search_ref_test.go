package cp

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// slabSearch is the search as it was before it backtracked on a trail,
// kept as the reference: it copies every domain before each branch
// into storage it keeps per depth and copies them back after a
// failure, and it lists a node's values before it tries any. Its
// Minimize is the solver's, but for the dive it runs.
type slabSearch struct {
	s      *Solver
	levels []level
}

// level is what the reference keeps per depth and reuses from node to
// node: the state saved before each branch and the node's value order.
type level struct {
	saved State
	order []int
}

func (ref *slabSearch) minimize(obj *IntVar, opts Options) (Solution, error) {
	s := ref.s
	r := s.newRun(opts, obj)
	best := Solution{}
	found := false
	root := s.SaveState()
	bound := obj.Max()
	for {
		if opts.SharedBound != nil {
			bound = min(bound, opts.SharedBound.Bound())
		}
		err := ref.restart(&r, root, bound)
		switch {
		case err == nil:
			s.solutions++
			best = s.capture(r.vars)
			best.Objective = obj.Min()
			found = true
			bound = best.Objective - 1
			if opts.OnSolution != nil {
				bound = opts.OnSolution(best)
			}
		case Stopped(err):
			return best, err
		case found && errors.Is(err, ErrFailed):
			return best, nil
		default:
			return Solution{}, err
		}
	}
}

func (ref *slabSearch) restart(r *run, root State, bound int) error {
	s := ref.s
	if err := r.interrupted(); err != nil {
		return err
	}
	s.RestoreState(root)
	if err := s.RemoveAbove(r.obj, bound); err != nil {
		return err
	}
	if err := s.propagate(); err != nil {
		return err
	}
	return ref.search(r, 0)
}

// poll is the search's poll, run every 64 nodes and after every fail.
func (ref *slabSearch) poll(r *run) error {
	s := ref.s
	if err := r.interrupted(); err != nil {
		return err
	}
	if r.SharedBound != nil {
		if b := r.SharedBound.Bound(); r.obj.Max() > b {
			if err := s.RemoveAbove(r.obj, b); err != nil {
				return err
			}
			if err := s.propagate(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ref *slabSearch) search(r *run, depth int) error {
	s := ref.s
	if s.nodes&63 == 0 {
		if err := ref.poll(r); err != nil {
			return err
		}
	}
	s.nodes++
	v := s.pick(r)
	if v == nil {
		return nil
	}
	if depth == len(ref.levels) {
		ref.levels = append(ref.levels, level{})
	}
	order := valueOrder(v, r, ref.levels[depth].order)
	ref.levels[depth].order = order
	for _, val := range order {
		if !v.Contains(val) {
			continue
		}
		saveInto(s, &ref.levels[depth].saved)
		err := ref.branch(v, val, r, depth)
		if err == nil {
			return nil
		}
		if Stopped(err) {
			return err
		}
		s.fails++
		s.RestoreState(ref.levels[depth].saved)
		if err := ref.poll(r); err != nil {
			return err
		}
		if err := s.RemoveValue(v, val); err != nil {
			return err
		}
		if err := s.propagate(); err != nil {
			return err
		}
	}
	return ErrFailed
}

func (ref *slabSearch) branch(v *IntVar, val int, r *run, depth int) error {
	if err := ref.s.Assign(v, val); err != nil {
		return err
	}
	if err := ref.s.propagate(); err != nil {
		return err
	}
	return ref.search(r, depth+1)
}

// saveInto overwrites st with the current domains, reusing its
// storage.
func saveInto(s *Solver, st *State) {
	st.words = append(st.words[:0], s.words...)
	st.bounds = st.bounds[:0]
	for _, v := range s.bounded {
		st.bounds = append(st.bounds, v.lo, v.hi)
	}
}

// valueOrder lists v's values in the order the node tries them, into
// buf's storage.
func valueOrder(v *IntVar, r *run, buf []int) []int {
	vals := buf[:0]
	if cap(vals) < v.Size() {
		vals = make([]int, 0, v.Size())
	}
	for val, last := v.Min(), v.Max(); ; val = v.NextValue(val + 1) {
		vals = append(vals, val)
		if val == last {
			break
		}
	}
	if r.rng != nil {
		r.rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	}
	if r.PreferValue && v.pref >= 0 {
		moveToFront(vals, v.pref)
	}
	if v.hint >= 0 {
		moveToFront(vals, int(v.hint))
	}
	return vals
}

// moveToFront moves val, when present, to the head of vals, shifting
// what was before it one place down.
func moveToFront(vals []int, val int) {
	for i, x := range vals {
		if x == val {
			copy(vals[1:i+1], vals[:i])
			vals[0] = val
			return
		}
	}
}

// searchModel is one model to search: a fresh solver, the variables
// whose values a solution records, the objective and the options.
type searchModel struct {
	s    *Solver
	vars []*IntVar
	obj  *IntVar
	opts Options
}

// searchRun is what one search went through: its counters, its error,
// and per solution the objective followed by the recorded values.
type searchRun struct {
	nodes, fails, solutions, propagations int64
	err                                   string
	found                                 [][]int
}

// runSearch minimizes m with the solver's search or, when ref, with
// the reference, recording every solution on the way.
func runSearch(m searchModel, ref bool) searchRun {
	var run searchRun
	opts := m.opts
	opts.OnSolution = func(sol Solution) int {
		rec := []int{sol.Objective}
		for _, v := range m.vars {
			rec = append(rec, sol.MustValue(v))
		}
		run.found = append(run.found, rec)
		if m.opts.OnSolution != nil {
			return m.opts.OnSolution(sol)
		}
		return sol.Objective - 1
	}
	minimize := m.s.Minimize
	if ref {
		minimize = (&slabSearch{s: m.s}).minimize
	}
	if _, err := minimize(m.obj, opts); err != nil {
		run.err = err.Error()
	}
	run.nodes, run.fails, run.solutions, run.propagations = m.s.Stats()
	return run
}

// requireSameSearch builds the model twice, searches one copy on the
// trail and the other with the reference, and requires the same
// counters, error and solutions; it returns the trail's run.
func requireSameSearch(t *testing.T, name string, build func() searchModel) searchRun {
	t.Helper()
	got := runSearch(build(), false)
	requireSameRun(t, name, got, runSearch(build(), true), "slab copy")
	return got
}

// requireSameRun requires of two runs the same counters, error and
// solutions; what names the second.
func requireSameRun(t *testing.T, name string, got, want searchRun, what string) {
	t.Helper()
	if got.nodes != want.nodes || got.fails != want.fails || got.solutions != want.solutions ||
		got.propagations != want.propagations || got.err != want.err {
		t.Fatalf("%s: %d nodes, %d fails, %d solutions, %d propagations, error %q; %s: %d, %d, %d, %d, %q",
			name, got.nodes, got.fails, got.solutions, got.propagations, got.err,
			what, want.nodes, want.fails, want.solutions, want.propagations, want.err)
	}
	for k := range got.found {
		if !slices.Equal(got.found[k], want.found[k]) {
			t.Fatalf("%s: solution %d is %v, %s %v", name, k, got.found[k], what, want.found[k])
		}
	}
}

// nodeBudget stops a search once it has opened budget nodes.
func nodeBudget(on []*IntVar, budget int64) Constraint {
	return &FuncConstraint{On: on, Run: func(s *Solver) error {
		if n, _, _, _ := s.Stats(); n >= budget {
			return ErrCanceled
		}
		return nil
	}}
}

// queensModel is n-queens on s under one of four variants of the
// orderings, with preferred values and, in variant 3, shuffled values.
// The last queen's column is the objective: every solution cuts the
// next dive below it.
func queensModel(s *Solver, n, variant int) searchModel {
	vars := queens(s, n)
	opts := Options{Vars: vars, FirstFail: variant%2 == 1, PreferValue: variant >= 2, ShuffleSeed: int64(variant / 3 * n)}
	for i, v := range vars {
		v.SetPreferred((i * 3) % n)
	}
	return searchModel{s: s, vars: vars, obj: vars[n-1], opts: opts}
}

// packingModel is the packing + table-sum model of seed on s, with
// hints, preferred values, now and then shuffled orders, a node budget
// and, for every third seed, a shared bound that a propagator tightens
// mid-search.
func packingModel(s *Solver, seed int64) searchModel {
	rng := rand.New(rand.NewSource(seed))
	m := newDeltaModel(rng)
	s, items, obj := m.build(s, false)
	opts := Options{Vars: items, FirstFail: rng.Intn(2) == 0, PreferValue: rng.Intn(3) > 0}
	if rng.Intn(3) == 0 {
		opts.ShuffleSeed = 1 + rng.Int63n(1000)
	}
	for i, v := range items {
		dom := m.domains[i]
		if rng.Intn(2) == 0 {
			v.SetPreferred(dom[rng.Intn(len(dom))])
		}
		if rng.Intn(3) == 0 {
			// Now and then a value outside the domain.
			v.SetHint(dom[rng.Intn(len(dom))] + rng.Intn(2))
		}
	}
	if seed%3 == 0 {
		// A shared incumbent that a propagator tightens once the
		// search has opened some nodes, and every solution
		// tightens as core's worker does.
		shared, at, to := NewIncumbent(m.top), int64(5+rng.Intn(60)), rng.Intn(m.top+1)
		opts.SharedBound = shared
		opts.OnSolution = func(sol Solution) int {
			shared.Tighten(sol.Objective - 1)
			return shared.Bound()
		}
		s.Post(&FuncConstraint{On: items, Run: func(s *Solver) error {
			if n, _, _, _ := s.Stats(); n >= at {
				shared.Tighten(to)
			}
			return nil
		}})
	}
	s.Post(nodeBudget(items, 20+rng.Int63n(300)))
	return searchModel{s: s, vars: items, obj: obj, opts: opts}
}

// TestSearchMatchesSlabCopyReference searches seeded models with the
// trail and with the slab-copy reference, which must open the same
// nodes, fail the same, run as many propagators and find the same
// solutions in the same order: n-queens under each ordering, and
// packing + table-sum models with hints, preferred values, shuffled
// orders, node budgets and a shared bound that a propagator tightens
// mid-search.
func TestSearchMatchesSlabCopyReference(t *testing.T) {
	solutions, stopped := 0, 0
	count := func(run searchRun) {
		solutions += len(run.found)
		if run.err != "" && run.err != ErrFailed.Error() {
			stopped++
		}
	}
	for n := 4; n <= 9; n++ {
		for variant := range 4 {
			count(requireSameSearch(t, fmt.Sprintf("%d-queens variant %d", n, variant), func() searchModel {
				return queensModel(NewSolver(), n, variant)
			}))
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		count(requireSameSearch(t, fmt.Sprintf("packing seed %d", seed), func() searchModel {
			return packingModel(NewSolver(), seed)
		}))
	}
	if solutions < 1500 || stopped < 40 {
		t.Fatalf("%d solutions, %d searches stopped by their budget: the models no longer exercise the search", solutions, stopped)
	}
}

// TestSharedBoundCutMatchesSlabCopyReference is the model of
// TestSearchAdoptsSharedBoundMidSearch, whose every leaf fails, under
// both searches: the cut the poll installs at node 128 and every undo
// that takes it back and every poll that reinstates it must prune the
// same nodes.
func TestSharedBoundCutMatchesSlabCopyReference(t *testing.T) {
	const items = 12
	for _, at := range []int64{1, 100, 700} {
		run := requireSameSearch(t, fmt.Sprintf("cut at node %d", at), func() searchModel {
			s := NewSolver()
			vars := make([]*IntVar, items)
			for i := range vars {
				vars[i] = s.NewEnumVar(fmt.Sprintf("x%d", i), []int{0, 1, 2})
				vars[i].SetPreferred(2)
			}
			obj := s.NewIntVar("obj", 0, 2*items)
			shared := NewIncumbent(2 * items)
			s.Post(&FuncConstraint{On: append([]*IntVar{obj}, vars...), Run: func(s *Solver) error {
				if n, _, _, _ := s.Stats(); n >= at {
					shared.Tighten(items / 2)
				}
				sum, unbound := 0, 0
				for _, v := range vars {
					sum += v.Min()
					if !v.Bound() {
						unbound++
					}
				}
				if unbound == 0 {
					return ErrFailed
				}
				return s.RemoveBelow(obj, sum)
			}})
			return searchModel{s: s, vars: vars, obj: obj, opts: Options{Vars: vars, PreferValue: true, SharedBound: shared}}
		})
		if run.err != ErrFailed.Error() || run.nodes < 2*at {
			t.Fatalf("cut at node %d: %d nodes, error %q; want the whole pruned tree searched and failed", at, run.nodes, run.err)
		}
	}
}
