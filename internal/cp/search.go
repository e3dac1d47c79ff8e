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
	// nodes, after every failed try and before every restart, and
	// returns ErrCanceled once it is done (canceled, or past its
	// deadline). nil means the search runs to completion.
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
	// (IntVar.SetPreferred) first, after its hint (IntVar.SetHint): the
	// paper assigns running VMs to their current node in priority.
	// Remaining values are tried in ascending order.
	PreferValue bool
	// ShuffleSeed, when non-zero, shuffles the value order at every
	// node (the hint and, under PreferValue, the preferred value keep
	// priority) with a stream the call seeds once: it advances across
	// Minimize's restarts, so each restart explores a differently
	// ordered tree.
	ShuffleSeed int64
	// SharedBound connects Minimize to a portfolio-wide incumbent:
	// every restart and every context poll cut the objective at it, so
	// every worker prunes with the global best even mid-search.
	SharedBound *Incumbent
	// OnSolution, when non-nil, scores each solution Minimize finds
	// and returns the bound its next restart cuts the objective at;
	// nil means Objective-1.
	OnSolution func(Solution) int
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
	vars   []*IntVar
	values []int // in vars order
	// Objective is the objective value at the time the solution was
	// found.
	Objective int
}

// Value returns the solved value of the i-th decision variable, in
// Options.Vars order.
func (s Solution) Value(i int) int { return s.values[i] }

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
// closes the frames the last dive left open, restores the root, cuts
// the objective above bound and searches.
func (s *Solver) restart(r *run, root State, bound int) error {
	if err := r.interrupted(); err != nil {
		return err
	}
	for len(s.frames) > 0 {
		s.undo()
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
	sol := Solution{vars: vars, values: make([]int, len(vars))}
	for i, v := range vars {
		sol.values[i] = v.Value()
	}
	return sol
}

// search runs depth-first search until all of r's vars are bound
// (nil) or the subtree fails (ErrFailed) or the context is done
// (ErrCanceled). Domains are assumed propagated to fixpoint on entry.
// depth is the number of branches above this node.
func (s *Solver) search(r *run, depth int) error {
	if s.nodes&63 == 0 {
		if err := s.poll(r); err != nil {
			return err
		}
	}
	s.nodes++
	v := s.pick(r)
	if v == nil {
		return nil // all bound: solution
	}
	// The values go in this order: the warm-start hint, the preferred
	// value, then the rest ascending — or, under ShuffleSeed, as a
	// shuffle of the node's domain has them — passing over what a
	// sibling's refutation pruned. The domain only shrinks at a node,
	// so reading it as the loop goes visits what listing it would.
	var order []int
	if r.rng != nil {
		// Deeper nodes may grow orders, so it is indexed afresh.
		if depth == len(s.orders) {
			s.orders = append(s.orders, nil)
		}
		order = s.orders[depth][:0]
		for val, last := v.Min(), v.Max(); ; val = v.NextValue(val + 1) {
			order = append(order, val)
			if val == last {
				break
			}
		}
		r.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		s.orders[depth] = order
	}
	if v.hint >= 0 && v.Contains(int(v.hint)) {
		if done, err := s.try(v, int(v.hint), r, depth); done {
			return err
		}
	}
	if r.PreferValue && v.pref >= 0 && v.Contains(v.pref) {
		if done, err := s.try(v, v.pref, r, depth); done {
			return err
		}
	}
	// A value tried above failed and was refuted: it is gone.
	if order != nil {
		for _, val := range order {
			if v.Contains(val) {
				if done, err := s.try(v, val, r, depth); done {
					return err
				}
			}
		}
		return ErrFailed
	}
	for val := v.Min(); ; val = v.NextValue(val + 1) {
		if done, err := s.try(v, val, r, depth); done {
			return err
		}
		if val >= v.Max() {
			return ErrFailed
		}
	}
}

// try branches on v = val: inside a frame of its own it assigns,
// propagates and searches below. done reports that the node ends with
// err: a solution below (nil), an interruption, or a wipe-out when,
// the branch failed and undone, a poll's cut or refuting val at this
// node propagated to one. Otherwise the node goes on to its next
// value.
func (s *Solver) try(v *IntVar, val int, r *run, depth int) (done bool, err error) {
	s.open()
	if err = s.Assign(v, val); err == nil {
		if err = s.propagate(); err == nil {
			err = s.search(r, depth+1)
		}
	}
	if err == nil || Stopped(err) {
		return true, err
	}
	s.fails++
	s.undo()
	// A node may fail dozens of tries, each a full pass of the
	// propagators that keep sums: poll after each.
	if err = s.poll(r); err != nil {
		return true, err
	}
	// Siblings benefit from the refutation.
	if err = s.RemoveValue(v, val); err == nil {
		err = s.propagate()
	}
	return err != nil, err
}

// poll, every 64 nodes and after every fail, returns ErrCanceled once
// the context is done, and adopts the portfolio-wide incumbent:
// tightening the objective here prunes the rest of this subtree with
// bounds discovered by other workers. Backtracking undoes the cut,
// but the next poll reinstates it — the shared bound only ever
// decreases.
func (s *Solver) poll(r *run) error {
	if err := r.interrupted(); err != nil {
		return err
	}
	if r.SharedBound == nil {
		return nil
	}
	if b := r.SharedBound.Bound(); r.obj.Max() > b {
		if err := s.RemoveAbove(r.obj, b); err != nil {
			return err
		}
		return s.propagate()
	}
	return nil
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
