// Package cp is a small finite-domain constraint-programming solver,
// the stand-in for the Choco 1.2.04 library the paper uses (§4.3). It
// provides integer variables over finite domains, a propagation engine
// with constraint watch lists that also tell a constraint keeping sums
// which of its variables changed (valid until the next restore),
// depth-first search that backtracks on a trail, pluggable
// variable/value ordering heuristics (first fail, prefer-current-value,
// seeded shuffles), and cooperative cancellation through a context.
//
// A domain lives in its IntVar: an enumerated variable's bitset is a
// window of one slab the solver owns, beside the cached size and
// bounds in the variable's own fields; a bounds-only variable (the
// objective) is its two bounds alone. A branch opens a frame: the
// first write to a slab word inside it saves the word on the trail (a
// bounds-only variable is saved whole), and a failure undoes the
// frame, last record first, recounting the variables it touched. A
// State, what Minimize restarts from, is a copy of the slab and bounds.
//
// Solver.Minimize is the one branch-and-bound loop of the repository:
// it restarts from the root under a bound that only falls, and a
// caller that scores solutions by more than the objective — core's
// plan cost — sets the next bound from Options.OnSolution and shares
// it across a portfolio through Options.SharedBound.
//
// The solver is deliberately scoped to what the paper's
// reconfiguration problem needs; it is nevertheless a generic engine:
// constraints implement the Constraint interface and can be combined
// freely (the test suite solves n-queens and Sudoku-like puzzles with
// it).
package cp

import "math/bits"

// recount sets an enumerated variable's size and bounds from its bits.
func (v *IntVar) recount() {
	v.n, v.lo, v.hi = 0, -1, -1
	for w, word := range v.words {
		if word != 0 {
			if v.n == 0 {
				v.lo = w*64 + bits.TrailingZeros64(word)
			}
			v.n += bits.OnesCount64(word)
			v.hi = w*64 + 63 - bits.LeadingZeros64(word)
		}
	}
}

func (v *IntVar) scanUp(from int) int {
	for w := from / 64; w < len(v.words); w++ {
		word := v.words[w]
		if w == from/64 {
			word &= ^uint64(0) << uint(from%64)
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

func (v *IntVar) scanDown(from int) int {
	for w := from / 64; w >= 0; w-- {
		word := v.words[w]
		if w == from/64 {
			word &= ^uint64(0) >> uint(63-from%64)
		}
		if word != 0 {
			return w*64 + 63 - bits.LeadingZeros64(word)
		}
	}
	return -1
}

// removeValue removes val; reports whether the domain changed. A
// bounds-only variable loses a bound by one and panics on an interior
// value: the engine never removes one.
func (v *IntVar) removeValue(val int) bool {
	if !v.Contains(val) {
		return false
	}
	if v.words == nil {
		switch val {
		case v.lo:
			v.lo++
		case v.hi:
			v.hi--
		default:
			panic("cp: interior removal on bounds-only variable " + v.name)
		}
		v.n--
		return true
	}
	v.words[val/64] &^= 1 << uint(val%64)
	v.n--
	if v.n == 0 {
		v.lo, v.hi = -1, -1
		return true
	}
	if val == v.lo {
		v.lo = v.scanUp(val)
	}
	if val == v.hi {
		v.hi = v.scanDown(val)
	}
	return true
}

// removeBelow keeps values >= val; reports change.
func (v *IntVar) removeBelow(val int) bool {
	if v.words == nil {
		if val <= v.lo {
			return false
		}
		v.lo = val
		v.n = max(0, v.hi-v.lo+1)
		return true
	}
	changed := false
	for v.n > 0 && v.lo < val {
		v.removeValue(v.lo)
		changed = true
	}
	return changed
}

// removeAbove keeps values <= val; reports change.
func (v *IntVar) removeAbove(val int) bool {
	if v.words == nil {
		if val >= v.hi {
			return false
		}
		v.hi = val
		v.n = max(0, v.hi-v.lo+1)
		return true
	}
	changed := false
	for v.n > 0 && v.hi > val {
		v.removeValue(v.hi)
		changed = true
	}
	return changed
}
