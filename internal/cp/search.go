package cp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
)

// Options tunes the search.
type Options struct {
	// Ctx stops the search cooperatively: the search polls it every 64
	// nodes and before every restart, and returns ErrCanceled once it
	// is done (canceled, or past its deadline). nil means the search
	// runs to completion.
	Ctx context.Context
	// Vars are the decision variables, all of which must be bound in a
	// solution. Defaults to every enumerated variable of the solver.
	Vars []*IntVar
	// FirstFail, when true (the paper's choice, §4.3), selects the
	// unbound variable with the smallest domain; ties are broken by
	// the order of Vars, so callers implement "hardest VMs first" by
	// ordering Vars by decreasing demand. When false, variables are
	// taken in Vars order.
	FirstFail bool
	// PreferValue, when true, tries each variable's preferred value
	// first (the paper assigns running VMs to their current node in
	// priority); remaining values are tried in ascending order.
	PreferValue bool
	// ShuffleSeed, when non-zero, shuffles the value order at every
	// node (the preferred value keeps priority under PreferValue) with
	// a stream the call seeds once: it advances across Minimize's
	// restarts, so each restart explores a differently ordered tree.
	ShuffleSeed int64
	// SharedBound connects Minimize to a portfolio-wide incumbent:
	// every restart and every context poll cut the objective at it, so
	// every worker prunes with the global best even mid-search.
	SharedBound *Incumbent
	// OnSolution, when non-nil, scores each solution Minimize finds
	// and returns the bound its next restart cuts the objective at;
	// nil means Objective-1.
	OnSolution func(Solution) int
	// Hints is the warm-start assignment, typically the incumbent of a
	// previous solve of a nearby problem. A hinted value is tried first
	// at branching — ahead of the Preferred value — so the search dives
	// towards the old solution before diversifying.
	Hints map[*IntVar]int
}

// interrupted reports whether the search must stop right now:
// ErrCanceled (wrapping the cause) when the context is done, nil
// otherwise.
func (o Options) interrupted() error {
	if o.Ctx != nil {
		select {
		case <-o.Ctx.Done():
			return fmt.Errorf("%w: %v", ErrCanceled, context.Cause(o.Ctx))
		default:
		}
	}
	return nil
}

// Solution is an immutable assignment of the decision variables.
type Solution struct {
	values map[*IntVar]int
	// Objective is the objective value at the time the solution was
	// found.
	Objective int
}

// MustValue returns the solved value of v and panics when v was not a
// decision variable (a programming error).
func (s Solution) MustValue(v *IntVar) int {
	val, ok := s.values[v]
	if !ok {
		panic("cp: variable not part of the solution: " + v.name)
	}
	return val
}

// run is what one Minimize call hands its search: the options, the
// decision variables, the objective the poll clamps to SharedBound and
// the call's shuffle stream.
type run struct {
	Options
	vars []*IntVar
	obj  *IntVar
	rng  *rand.Rand
}

func (s *Solver) newRun(opts Options, obj *IntVar) run {
	r := run{Options: opts, vars: opts.Vars, obj: obj}
	if len(r.vars) == 0 {
		r.vars = s.vars
	}
	if opts.ShuffleSeed != 0 {
		r.rng = rand.New(rand.NewSource(opts.ShuffleSeed))
	}
	return r
}

// Minimize runs branch-and-bound on obj: it searches below a bound
// that OnSolution (or Objective-1) lowers after each solution and
// restarts, until the space below the bound is exhausted (proving
// optimality) or the search is interrupted. It returns the last
// solution found; the error is nil when optimality was proven,
// ErrCanceled when the interruption cut the proof short, and ErrFailed
// when no solution exists at all.
func (s *Solver) Minimize(obj *IntVar, opts Options) (Solution, error) {
	r := s.newRun(opts, obj)
	best := Solution{}
	found := false
	root := s.SaveState()
	bound := obj.Max()
	for {
		if opts.SharedBound != nil {
			bound = min(bound, opts.SharedBound.Bound())
		}
		err := s.restart(&r, root, bound)
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
			return best, nil // optimality proven
		default:
			return Solution{}, err
		}
	}
}

// restart is one dive of Minimize: unless the context is done, it
// restores the root, cuts the objective above bound and searches.
func (s *Solver) restart(r *run, root State, bound int) error {
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
	return s.search(r, 0)
}

func (s *Solver) capture(vars []*IntVar) Solution {
	sol := Solution{values: make(map[*IntVar]int, len(vars))}
	for _, v := range vars {
		sol.values[v] = v.Value()
	}
	return sol
}

// level is what the search keeps per depth and reuses from node to
// node: the state saved before each branch and the node's value order.
type level struct {
	saved State
	order []int
}

// search runs depth-first search until all of r's vars are bound
// (nil) or the subtree fails (ErrFailed) or the context is done
// (ErrCanceled). Domains are assumed propagated to fixpoint on entry.
// depth is the number of branches above this node.
func (s *Solver) search(r *run, depth int) error {
	if s.nodes&63 == 0 {
		if err := r.interrupted(); err != nil {
			return err
		}
		// Adopt the portfolio-wide incumbent: tightening the objective
		// here prunes the rest of this subtree with bounds discovered
		// by other workers. Backtracking undoes the cut, but the next
		// poll reinstates it — the shared bound only ever decreases.
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
	}
	s.nodes++
	v := s.pick(r)
	if v == nil {
		return nil // all bound: solution
	}
	// Deeper nodes may grow levels, so it is indexed afresh after each
	// descent; the order's backing array stays where it is.
	if depth == len(s.levels) {
		s.levels = append(s.levels, level{})
	}
	order := s.valueOrder(v, r, s.levels[depth].order)
	s.levels[depth].order = order
	for _, val := range order {
		if !v.Contains(val) {
			continue // pruned by a sibling's failure propagation
		}
		s.saveInto(&s.levels[depth].saved)
		err := s.branch(v, val, r, depth)
		if err == nil {
			return nil
		}
		if Stopped(err) {
			return err
		}
		s.fails++
		s.RestoreState(s.levels[depth].saved)
		// The value failed: remove it at this level and re-propagate,
		// so siblings benefit from the refutation.
		if err := s.RemoveValue(v, val); err != nil {
			return err
		}
		if err := s.propagate(); err != nil {
			return err
		}
	}
	return ErrFailed
}

// branch tries v = val: assign, propagate, search below.
func (s *Solver) branch(v *IntVar, val int, r *run, depth int) error {
	if err := s.Assign(v, val); err != nil {
		return err
	}
	if err := s.propagate(); err != nil {
		return err
	}
	return s.search(r, depth+1)
}

func (s *Solver) pick(r *run) *IntVar {
	var best *IntVar
	for _, v := range r.vars {
		if v.Bound() {
			continue
		}
		if !r.FirstFail {
			return v
		}
		if best == nil || v.Size() < best.Size() {
			best = v
		}
	}
	return best
}

// valueOrder lists v's values in the order the node tries them, into
// buf's storage.
func (s *Solver) valueOrder(v *IntVar, r *run, buf []int) []int {
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
	// Priority values: the warm-start hint first, then the preferred
	// value. Both survive shuffling — diversified restarts still dive
	// towards the old solution before exploring — and the rest keep
	// their order.
	if r.PreferValue && v.pref >= 0 {
		moveToFront(vals, v.pref)
	}
	if h, ok := r.Hints[v]; ok {
		moveToFront(vals, h)
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
