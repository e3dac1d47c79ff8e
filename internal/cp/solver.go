package cp

import (
	"errors"
	"fmt"
)

// ErrFailed signals an inconsistency: a domain wipe-out or a
// constraint that cannot be satisfied. The search catches it and
// backtracks.
var ErrFailed = errors.New("cp: inconsistent")

// ErrCanceled is returned when the search context (Options.Ctx) is
// done — canceled or past its deadline — before the search space is
// exhausted. Minimize still reports the best solution found so far
// alongside it.
var ErrCanceled = errors.New("cp: canceled")

// Stopped reports whether err is a search interruption rather than a
// definitive answer (solution found or space exhausted).
func Stopped(err error) bool { return errors.Is(err, ErrCanceled) }

// Constraint is a propagator: Propagate prunes the domains of the
// variables it watches and returns ErrFailed (possibly wrapped) when
// it detects an inconsistency.
type Constraint interface {
	// Vars returns the variables whose domain changes wake this
	// constraint.
	Vars() []*IntVar
	// Propagate prunes domains through the solver. It must be
	// idempotent at fixpoint.
	Propagate(s *Solver) error
}

// Solver owns the variables and runs the propagation queue of the
// constraints posted on them.
type Solver struct {
	vars   []*IntVar
	queue  []Constraint
	queued map[Constraint]bool

	// stats
	nodes      int64
	fails      int64
	solutions  int64
	propagates int64
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{queued: make(map[Constraint]bool)}
}

// NewEnumVar creates a variable whose domain is exactly the given
// non-negative values (deduplicated).
func (s *Solver) NewEnumVar(name string, values []int) *IntVar {
	if len(values) == 0 {
		panic("cp: empty initial domain for " + name)
	}
	v := &IntVar{name: name, dom: newBitsetDomain(values), pref: -1}
	s.vars = append(s.vars, v)
	return v
}

// NewIntVar creates a bounds-only variable over [min, max]. Use it for
// large numeric ranges such as objective functions; it does not
// support interior value removal.
func (s *Solver) NewIntVar(name string, min, max int) *IntVar {
	if max < min {
		panic(fmt.Sprintf("cp: empty range [%d,%d] for %s", min, max, name))
	}
	v := &IntVar{name: name, dom: &boundsDomain{lo: min, hi: max}, pref: -1}
	s.vars = append(s.vars, v)
	return v
}

// Post registers a constraint and schedules its first propagation.
func (s *Solver) Post(c Constraint) {
	for _, v := range c.Vars() {
		v.watchers = append(v.watchers, c)
	}
	s.enqueue(c)
}

func (s *Solver) enqueue(c Constraint) {
	if !s.queued[c] {
		s.queued[c] = true
		s.queue = append(s.queue, c)
	}
}

func (s *Solver) wake(v *IntVar) {
	for _, c := range v.watchers {
		s.enqueue(c)
	}
}

// RemoveValue removes val from v's domain, waking watchers. It returns
// ErrFailed when the domain empties.
func (s *Solver) RemoveValue(v *IntVar, val int) error {
	if v.dom.removeValue(val) {
		if v.dom.size() == 0 {
			return fmt.Errorf("%w: %s emptied", ErrFailed, v.name)
		}
		s.wake(v)
	}
	return nil
}

// RemoveBelow prunes values below min from v's domain.
func (s *Solver) RemoveBelow(v *IntVar, min int) error {
	if v.dom.removeBelow(min) {
		if v.dom.size() == 0 {
			return fmt.Errorf("%w: %s emptied", ErrFailed, v.name)
		}
		s.wake(v)
	}
	return nil
}

// RemoveAbove prunes values above max from v's domain.
func (s *Solver) RemoveAbove(v *IntVar, max int) error {
	if v.dom.removeAbove(max) {
		if v.dom.size() == 0 {
			return fmt.Errorf("%w: %s emptied", ErrFailed, v.name)
		}
		s.wake(v)
	}
	return nil
}

// Assign binds v to val.
func (s *Solver) Assign(v *IntVar, val int) error {
	if !v.dom.contains(val) {
		return fmt.Errorf("%w: %s cannot take %d", ErrFailed, v.name, val)
	}
	if err := s.RemoveBelow(v, val); err != nil {
		return err
	}
	return s.RemoveAbove(v, val)
}

// propagate runs the propagation queue to fixpoint.
func (s *Solver) propagate() error {
	for len(s.queue) > 0 {
		c := s.queue[0]
		s.queue = s.queue[1:]
		s.queued[c] = false
		s.propagates++
		if err := c.Propagate(s); err != nil {
			// Drain the queue: a failed state must not leak stale
			// entries into the next search node.
			for _, q := range s.queue {
				s.queued[q] = false
			}
			s.queue = s.queue[:0]
			return err
		}
	}
	return nil
}

// snapshot copies the domains (and preferred values) of every
// variable.
func (s *Solver) snapshot() []domain {
	snap := make([]domain, len(s.vars))
	for i, v := range s.vars {
		snap[i] = v.dom.clone()
	}
	return snap
}

// restore reinstalls a snapshot taken by snapshot().
func (s *Solver) restore(snap []domain) {
	for i, v := range s.vars {
		v.dom = snap[i].clone()
	}
}

// Stats reports search counters: explored nodes, failures, solutions
// and propagator runs.
func (s *Solver) Stats() (nodes, fails, solutions, propagations int64) {
	return s.nodes, s.fails, s.solutions, s.propagates
}

// State is an opaque snapshot of every variable domain, used by
// callers that drive their own branch-and-bound loop (e.g. the
// reconfiguration optimizer bounds on the true plan cost, which only
// it can evaluate).
type State struct{ snap []domain }

// SaveState captures the current domains.
func (s *Solver) SaveState() State { return State{snap: s.snapshot()} }

// RestoreState reinstalls a snapshot taken by SaveState. The snapshot
// remains reusable.
func (s *Solver) RestoreState(st State) { s.restore(st.snap) }
