package cp

import "fmt"

// IntVar is a finite-domain integer variable owned by a Solver. All
// mutation goes through Solver methods so changes are propagated and
// undone on backtrack.
//
// Its domain lives in its own fields. An enumerated variable (NewEnumVar)
// keeps value v as bit v%64 of words[v/64], words being a window of the
// solver's slab, and n, lo and hi cache the size and bounds (-1 and -1
// once empty). A bounds-only variable (NewIntVar) has no words: its
// domain is every value in [lo, hi], of which there are n.
type IntVar struct {
	name      string
	words     []uint64
	n, lo, hi int
	off       int   // where words starts in the slab
	stamp     int32 // a bounds-only variable's (see Solver.stamps)
	// hint is the warm-start value, tried ahead of pref (e.g. the node
	// a previous solve placed the VM on); -1 when unset.
	hint int32
	// watchers are the constraints to wake when the domain changes.
	watchers []watch
	// pref is the value tried first during search (e.g. the node the
	// VM currently runs on); -1 when unset.
	pref int
}

// watch names a constraint to wake by its posting index and, when it
// keeps a delta, the bit of Solver.marks for this variable (else -1).
type watch struct{ con, mark int32 }

// Name returns the variable name given at creation.
func (v *IntVar) Name() string { return v.name }

// Min returns the domain minimum.
func (v *IntVar) Min() int { return v.lo }

// Max returns the domain maximum.
func (v *IntVar) Max() int { return v.hi }

// Size returns the domain cardinality.
func (v *IntVar) Size() int { return v.n }

// Bound reports whether the domain is a singleton.
func (v *IntVar) Bound() bool { return v.n == 1 }

// Value returns the assigned value; it panics when the variable is not
// bound, which would be a solver bug.
func (v *IntVar) Value() int {
	if !v.Bound() {
		panic(fmt.Sprintf("cp: Value() on unbound variable %s", v.name))
	}
	return v.lo
}

// Contains reports whether val is still in the domain.
func (v *IntVar) Contains(val int) bool {
	if v.words == nil {
		return val >= v.lo && val <= v.hi
	}
	return val >= 0 && val/64 < len(v.words) && v.words[val/64]&(1<<uint(val%64)) != 0
}

// Values returns the remaining domain values in ascending order. It
// allocates the slice: it is for tests and debugging; propagators
// iterate with NextValue.
func (v *IntVar) Values() []int {
	out := make([]int, 0, v.n)
	for val := v.lo; len(out) < v.n; val = v.NextValue(val + 1) {
		out = append(out, val)
	}
	return out
}

// NextValue returns the smallest domain value >= from, or -1 when
// there is none, without allocating:
//
//	for val := v.NextValue(0); val >= 0; val = v.NextValue(val + 1)
//
// visits the domain in ascending order and tolerates the removal of
// val inside the body. Enumerated domains are non-negative, so -1 is
// unambiguous there; on a bounds-only variable that may go negative,
// stop at Max() instead.
func (v *IntVar) NextValue(from int) int {
	switch {
	case from > v.hi:
		return -1
	case from <= v.lo:
		return v.lo
	case v.words == nil:
		return from
	}
	return v.scanUp(from)
}

// SetPreferred sets the value the search tries first for this
// variable under Options.PreferValue. Use -1 to clear.
func (v *IntVar) SetPreferred(val int) { v.pref = val }

// SetHint sets the warm-start value, typically what the incumbent of a
// previous solve of a nearby problem assigned: the search tries it
// ahead of the preferred value, so it dives towards the old solution
// before diversifying. Use -1 to clear.
func (v *IntVar) SetHint(val int) { v.hint = int32(val) }

// String renders the variable with its domain, for debugging.
func (v *IntVar) String() string {
	if v.Bound() {
		return fmt.Sprintf("%s=%d", v.name, v.Value())
	}
	if v.Size() <= 8 {
		return fmt.Sprintf("%s∈%v", v.name, v.Values())
	}
	return fmt.Sprintf("%s∈[%d..%d](%d)", v.name, v.Min(), v.Max(), v.Size())
}
