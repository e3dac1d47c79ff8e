package cp

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
// it detects an inconsistency. The search only ever asks
// errors.Is(err, ErrFailed), many times a second: return the bare
// sentinel rather than formatting a message per wipe-out.
//
// A constraint learns that one of its variables changed; the package's
// own Packing and TableSum also learn which (see delta).
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
	// vars are the enumerated variables and bounded the bounds-only
	// ones, each in creation order.
	vars, bounded []*IntVar
	// words is the slab every enumerated domain keeps its bitset in,
	// in creation order: one copy saves or restores them all.
	words []uint64

	// cons are the posted constraints; a constraint is known by its
	// index. queue is a FIFO ring of the indices awaiting propagation,
	// never shorter than cons, and queued marks the indices in it, so
	// each is in it at most once.
	cons        []Constraint
	queue       []int
	qhead, qlen int
	queued      []bool
	// marks holds every delta's bits; restores counts RestoreState
	// calls and undos.
	marks    []uint64
	restores int

	// The trail the search backtracks on: a frame is open per branch
	// above the node, and trail and boundsTrail hold what the first
	// write inside a frame overwrote. stamps holds per slab word the
	// frame that saved it last, 0 for none (IntVar.stamp for a
	// bounds-only variable), and owners the index in vars of the
	// variable whose window holds it.
	stamps, owners []int32
	trail          []savedWord
	boundsTrail    []savedBounds
	frames         []frame

	// orders is a ShuffleSeed search's value order per depth, reused
	// from node to node.
	orders [][]int
	// spare are the variables of the models before the last Reset,
	// which the next ones are made of.
	spare []*IntVar

	// stats
	nodes      int64
	fails      int64
	solutions  int64
	propagates int64
}

// NewSolver returns an empty solver.
func NewSolver() *Solver { return &Solver{} }

// Reset empties the solver for another model, as if it were new, but
// keeps its storage: the slab, the trail, the queue and the marks
// keep their capacity, and the variables of the old model, with the
// capacity of their watcher lists, become those of the next. Every
// variable, constraint, State and Solution of the old model is void
// once it returns.
func (s *Solver) Reset() {
	s.spare = append(append(s.spare, s.vars...), s.bounded...)
	clear(s.cons) // let the old constraints be collected
	s.vars, s.bounded, s.cons = s.vars[:0], s.bounded[:0], s.cons[:0]
	s.words, s.stamps, s.owners = s.words[:0], s.stamps[:0], s.owners[:0]
	s.queued, s.marks = s.queued[:0], s.marks[:0]
	s.trail, s.boundsTrail, s.frames = s.trail[:0], s.boundsTrail[:0], s.frames[:0]
	s.qhead, s.qlen, s.restores = 0, 0, 0
	s.nodes, s.fails, s.solutions, s.propagates = 0, 0, 0, 0
}

// newVar returns a variable with v's fields: a spare one when Reset
// left any, with its watcher list emptied, else a new one.
func (s *Solver) newVar(v IntVar) *IntVar {
	n := len(s.spare)
	if n == 0 {
		u := new(IntVar) // not &v: v would move to the heap on every call
		*u = v
		return u
	}
	u := s.spare[n-1]
	s.spare = s.spare[:n-1]
	v.watchers = u.watchers[:0]
	*u = v
	return u
}

// NewEnumVar creates a variable whose domain is exactly the given
// non-negative values (deduplicated).
func (s *Solver) NewEnumVar(name string, values []int) *IntVar {
	if len(values) == 0 {
		panic("cp: empty initial domain for " + name)
	}
	v := s.newVar(IntVar{name: name, lo: slices.Min(values), hi: slices.Max(values), pref: -1, hint: -1})
	if v.lo < 0 {
		panic("cp: negative value in the enumerated domain of " + name)
	}
	// The bitset goes at the end of the slab. Growing the slab moves
	// it, and then every earlier window is cut again.
	off, end := len(s.words), len(s.words)+v.hi/64+1
	if end > cap(s.words) {
		s.words = slices.Grow(s.words, end-off)
		for _, u := range s.vars {
			u.words = s.words[u.off : u.off+len(u.words) : u.off+len(u.words)]
		}
	}
	s.words = s.words[:end]
	s.stamps = append(s.stamps, make([]int32, end-off)...)
	for range end - off {
		s.owners = append(s.owners, int32(len(s.vars)))
	}
	// After a Reset the window may hold an old model's bits.
	v.words, v.off = s.words[off:end:end], off
	clear(v.words)
	for _, val := range values {
		if !v.Contains(val) {
			v.words[val/64] |= 1 << uint(val%64)
			v.n++
		}
	}
	s.vars = append(s.vars, v)
	return v
}

// NewIntVar creates a bounds-only variable over [min, max]. Use it for
// large numeric ranges such as objective functions: removing a bound
// trims it, and an interior removal panics.
func (s *Solver) NewIntVar(name string, min, max int) *IntVar {
	if max < min {
		panic(fmt.Sprintf("cp: empty range [%d,%d] for %s", min, max, name))
	}
	v := s.newVar(IntVar{name: name, n: max - min + 1, lo: min, hi: max, pref: -1, hint: -1})
	s.bounded = append(s.bounded, v)
	return v
}

// Post registers a constraint and schedules its first propagation.
func (s *Solver) Post(c Constraint) {
	id := len(s.cons)
	s.cons = append(s.cons, c)
	s.queued = append(s.queued, false)
	if len(s.cons) > len(s.queue) {
		// Grow the ring, unrolled so the waiting indices keep their
		// order.
		ring := make([]int, max(8, 2*len(s.queue)))
		for i := 0; i < s.qlen; i++ {
			ring[i] = s.queue[(s.qhead+i)%len(s.queue)]
		}
		s.queue, s.qhead = ring, 0
	}
	vars, w := c.Vars(), watch{con: int32(id), mark: -1}
	if sub, ok := c.(interface{ delta() *delta }); ok {
		d := sub.delta()
		d.off, d.n = int32(len(s.marks)), int32(len(vars)+63)/64
		s.marks = append(s.marks, make([]uint64, d.n)...)
		w.mark = d.off * 64
	}
	for _, v := range vars {
		v.watchers = append(v.watchers, w)
		if w.mark >= 0 {
			w.mark++
		}
	}
	s.enqueue(id)
}

// delta is what a constraint keeps to learn which of its variables
// lost a value since it last looked: bit k of words off to off+n of
// Solver.marks stands for Vars()[k]. Domains only shrink between two
// restores, so sums kept beside it hold until the next RestoreState;
// epoch is one more than the restore count at its last look, 0 before.
type delta struct {
	off, n int32
	epoch  int
}

// stale reports, on the first look since a restore or ever, that the
// sums are to be recomputed, and drops the marks collected before.
func (d *delta) stale(s *Solver) bool {
	if d.epoch == s.restores+1 {
		return false
	}
	d.epoch = s.restores + 1
	clear(s.marks[d.off : d.off+d.n])
	return true
}

// take clears and returns the lowest mark at or above from, or -1;
// with none below from, take(s, 0), take(s, k), ... visits them all.
func (d *delta) take(s *Solver, from int) int {
	for w := from >> 6; w < int(d.n); w++ {
		if word := s.marks[int(d.off)+w]; word != 0 {
			s.marks[int(d.off)+w] = word & (word - 1)
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

func (s *Solver) enqueue(id int) {
	if s.queued[id] {
		return
	}
	s.queued[id] = true
	tail := s.qhead + s.qlen
	if tail >= len(s.queue) {
		tail -= len(s.queue)
	}
	s.queue[tail] = id
	s.qlen++
}

// dequeue takes the oldest waiting index out of the ring.
func (s *Solver) dequeue() int {
	id := s.queue[s.qhead]
	if s.qhead++; s.qhead == len(s.queue) {
		s.qhead = 0
	}
	s.qlen--
	s.queued[id] = false
	return id
}

func (s *Solver) wake(v *IntVar) {
	for _, w := range v.watchers {
		if w.mark >= 0 {
			s.marks[w.mark>>6] |= 1 << uint(w.mark&63)
		}
		s.enqueue(int(w.con))
	}
}

// changed follows every domain operation: a wipe-out is a failure,
// anything else that removed a value wakes v's watchers.
func (s *Solver) changed(v *IntVar, removed bool) error {
	if removed {
		if v.n == 0 {
			return ErrFailed
		}
		s.wake(v)
	}
	return nil
}

// RemoveValue removes val from v's domain, waking watchers. It returns
// ErrFailed when the domain empties.
func (s *Solver) RemoveValue(v *IntVar, val int) error {
	if v.Contains(val) {
		s.saveValues(v, val, val)
	}
	return s.changed(v, v.removeValue(val))
}

// RemoveBelow prunes values below min from v's domain.
func (s *Solver) RemoveBelow(v *IntVar, min int) error {
	s.saveValues(v, v.lo, min-1)
	return s.changed(v, v.removeBelow(min))
}

// RemoveAbove prunes values above max from v's domain.
func (s *Solver) RemoveAbove(v *IntVar, max int) error {
	s.saveValues(v, max+1, v.hi)
	return s.changed(v, v.removeAbove(max))
}

// removeMasked prunes from v's domain every value whose bit is set in
// mask (value x is bit x%64 of word x/64) and every value beyond the
// mask's last word; removed reports whether there was any. Only
// enumerated variables are masked.
func (s *Solver) removeMasked(v *IntVar, mask []uint64) (removed bool, err error) {
	for w, word := range v.words {
		m := ^uint64(0)
		if w < len(mask) {
			m = mask[w]
		}
		if hit := word & m; hit != 0 {
			s.save(v, w)
			v.words[w] = word &^ m
			v.n -= bits.OnesCount64(hit)
			removed = true
		}
	}
	switch {
	case !removed:
	case v.n == 0:
		v.lo, v.hi = -1, -1
	default:
		v.lo = v.scanUp(v.lo)
		v.hi = v.scanDown(v.hi)
	}
	return removed, s.changed(v, removed)
}

// Assign binds v to val in one pass over its bits, waking its
// watchers once when that removed a value.
func (s *Solver) Assign(v *IntVar, val int) error {
	if !v.Contains(val) {
		return fmt.Errorf("%w: %s cannot take %d", ErrFailed, v.name, val)
	}
	removed := v.n > 1
	if removed {
		s.saveValues(v, v.lo, v.hi)
	}
	if v.words != nil {
		clear(v.words)
		v.words[val/64] = 1 << uint(val%64)
	}
	v.n, v.lo, v.hi = 1, val, val
	return s.changed(v, removed)
}

// propagate runs the propagation queue to fixpoint, oldest first: the
// order constraints run in decides which of two failing ones is met
// first, hence which values a node prunes before it fails, and the
// search is pinned to the node.
func (s *Solver) propagate() error {
	for s.qlen > 0 {
		id := s.dequeue()
		s.propagates++
		if err := s.cons[id].Propagate(s); err != nil {
			// Drain the queue: a failed state must not leak stale
			// entries into the next search node.
			for s.qlen > 0 {
				s.dequeue()
			}
			return err
		}
	}
	return nil
}

// Stats reports search counters: explored nodes, failures, solutions
// and propagator runs.
func (s *Solver) Stats() (nodes, fails, solutions, propagations int64) {
	return s.nodes, s.fails, s.solutions, s.propagates
}

// State is an opaque copy of every variable domain: Minimize restores
// its root from one before every restart. It is the slab and the
// bounds of the bounds-only variables; a restore recounts each
// enumerated variable's size and bounds from its bits. It covers the
// variables that existed when it was taken.
type State struct {
	words  []uint64 // the slab
	bounds []int    // lo and hi per bounds-only variable
}

// SaveState captures the current domains.
func (s *Solver) SaveState() State {
	st := State{words: slices.Clone(s.words), bounds: make([]int, 0, 2*len(s.bounded))}
	for _, v := range s.bounded {
		st.bounds = append(st.bounds, v.lo, v.hi)
	}
	return st
}

// RestoreState reinstalls a state taken by SaveState, by copy: the
// state stays valid and can be restored any number of times. Inside
// an open frame it trails what it overwrites, so undoing the frame
// still returns to the frame's start.
func (s *Solver) RestoreState(st State) {
	s.restores++
	for _, v := range s.vars {
		end := v.off + len(v.words)
		if end > len(st.words) {
			break
		}
		for w, word := range st.words[v.off:end] {
			if v.words[w] != word {
				s.save(v, w)
				v.words[w] = word
			}
		}
		v.recount()
	}
	for i, v := range s.bounded[:len(st.bounds)/2] {
		s.saveValues(v, v.lo, v.hi)
		v.lo, v.hi = st.bounds[2*i], st.bounds[2*i+1]
		v.n = max(0, v.hi-v.lo+1)
	}
}

// savedWord is a slab word as the first write inside a frame found
// it: its index, its bits and its stamp.
type savedWord struct {
	bits      uint64
	at, stamp int32
}

// savedBounds is a bounds-only variable as the first write inside a
// frame found it.
type savedBounds struct {
	v         *IntVar
	n, lo, hi int
	stamp     int32
}

// frame is where an open frame's records start on the two trails.
type frame struct{ words, bounds int }

// open starts a frame: until the matching undo, the first write to a
// slab word or to a bounds-only variable saves what it overwrites.
func (s *Solver) open() {
	s.frames = append(s.frames, frame{len(s.trail), len(s.boundsTrail)})
}

// save trails word w of v's window unless the open frame has already;
// with no frame open, every stamp is 0 and nothing is trailed.
func (s *Solver) save(v *IntVar, w int) {
	at, f := v.off+w, int32(len(s.frames))
	if s.stamps[at] != f {
		s.trail = append(s.trail, savedWord{v.words[w], int32(at), s.stamps[at]})
		s.stamps[at] = f
	}
}

// saveValues trails, ahead of a write, the words of v holding its
// values from lo to hi, or a bounds-only v whole; with none of its
// values in that range, nothing. A frame opens on nonempty domains, so
// the first write inside it meets v nonempty.
func (s *Solver) saveValues(v *IntVar, lo, hi int) {
	lo, hi = max(lo, v.lo), min(hi, v.hi)
	switch f := int32(len(s.frames)); {
	case lo > hi:
	case v.words != nil:
		for w := lo / 64; w <= hi/64; w++ {
			s.save(v, w)
		}
	case v.stamp != f:
		s.boundsTrail = append(s.boundsTrail, savedBounds{v, v.n, v.lo, v.hi, v.stamp})
		v.stamp = f
	}
}

// undo returns every domain to the start of the innermost frame, last
// record first, and closes it, so the frame around it is the open one
// again. Like RestoreState it counts as a restore: the next run of a
// propagator that keeps sums is a full pass.
func (s *Solver) undo() {
	s.restores++
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	// Each run of records in one variable's window is followed by a
	// recount of it.
	owner := int32(-1)
	for i := len(s.trail) - 1; i >= f.words; i-- {
		e := s.trail[i]
		if o := s.owners[e.at]; o != owner {
			if owner >= 0 {
				s.vars[owner].recount()
			}
			owner = o
		}
		s.words[e.at], s.stamps[e.at] = e.bits, e.stamp
	}
	if owner >= 0 {
		s.vars[owner].recount()
	}
	for i := len(s.boundsTrail) - 1; i >= f.bounds; i-- {
		e := s.boundsTrail[i]
		e.v.n, e.v.lo, e.v.hi, e.v.stamp = e.n, e.lo, e.hi, e.stamp
	}
	s.trail, s.boundsTrail = s.trail[:f.words], s.boundsTrail[:f.bounds]
}
