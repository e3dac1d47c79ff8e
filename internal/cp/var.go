package cp

import "fmt"

// IntVar is a finite-domain integer variable owned by a Solver. All
// mutation goes through Solver methods so changes are propagated and
// undone on backtrack.
type IntVar struct {
	name string
	dom  domain
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
func (v *IntVar) Min() int { return v.dom.min() }

// Max returns the domain maximum.
func (v *IntVar) Max() int { return v.dom.max() }

// Size returns the domain cardinality.
func (v *IntVar) Size() int { return v.dom.size() }

// Bound reports whether the domain is a singleton.
func (v *IntVar) Bound() bool { return v.dom.size() == 1 }

// Value returns the assigned value; it panics when the variable is not
// bound, which would be a solver bug.
func (v *IntVar) Value() int {
	if !v.Bound() {
		panic(fmt.Sprintf("cp: Value() on unbound variable %s", v.name))
	}
	return v.dom.min()
}

// Contains reports whether val is still in the domain.
func (v *IntVar) Contains(val int) bool { return v.dom.contains(val) }

// Values returns the remaining domain values in ascending order. It
// allocates the slice: it is for tests and debugging; propagators
// iterate with NextValue.
func (v *IntVar) Values() []int { return v.dom.values() }

// NextValue returns the smallest domain value >= from, or -1 when
// there is none, without allocating:
//
//	for val := v.NextValue(0); val >= 0; val = v.NextValue(val + 1)
//
// visits the domain in ascending order and tolerates the removal of
// val inside the body. Enumerated domains are non-negative, so -1 is
// unambiguous there; on a bounds-only variable that may go negative,
// stop at Max() instead.
func (v *IntVar) NextValue(from int) int { return v.dom.next(from) }

// SetPreferred sets the value the search tries first for this
// variable. Use -1 to clear.
func (v *IntVar) SetPreferred(val int) { v.pref = val }

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
