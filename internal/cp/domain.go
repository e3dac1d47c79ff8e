// Package cp is a small finite-domain constraint-programming solver,
// the stand-in for the Choco 1.2.04 library the paper uses (§4.3). It
// provides integer variables over finite domains, a propagation engine
// with constraint watch lists that also tell a constraint keeping sums
// which of its variables changed (valid until the next restore),
// depth-first search that backtracks by
// copying every domain in place into storage it reuses per depth (all
// bitset words of a solver sit in one slab, so saving or restoring a
// state is one copy and allocates nothing), pluggable variable/value
// ordering heuristics (first fail, prefer-current-value, seeded
// shuffles), and cooperative cancellation through a context.
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

// domain is the value set of a variable. Two implementations exist: a
// bitset for small enumerated domains (VM-to-node assignments) and a
// bounds-only interval for large numeric ranges (the cost objective).
type domain interface {
	min() int
	max() int
	size() int
	contains(v int) bool
	// removeValue removes v; reports whether the domain changed.
	// Bounds-only domains support removal at the bounds exclusively
	// and panic otherwise (the engine never does interior removal on
	// them).
	removeValue(v int) bool
	// removeBelow keeps values >= v; reports change.
	removeBelow(v int) bool
	// removeAbove keeps values <= v; reports change.
	removeAbove(v int) bool
	// removeMask removes every value whose bit is set in mask (value v
	// is bit v%64 of word v/64) and every value mask has no bit for;
	// reports change.
	removeMask(mask []uint64) bool
	// next returns the smallest value >= from, or -1 when there is
	// none. It allocates nothing: propagators iterate with it.
	next(from int) int
	// values returns the domain in ascending order, in a new slice.
	values() []int
	// extent and setExtent read and reinstall what a saved State keeps
	// per variable beside the bitset words.
	extent() extent
	setExtent(extent)
}

// extent is the cached size and bounds of a domain. A bounds-only
// domain is nothing else; its n is unused.
type extent struct{ n, lo, hi int }

// bitsetDomain enumerates values in [0, n) with one bit each. Once a
// solver owns it, words is a window of the solver's slab.
type bitsetDomain struct {
	words []uint64
	n     int // number of set bits
	lo    int // cached minimum
	hi    int // cached maximum
}

// newBitsetDomain returns the domain of exactly the given values,
// with its words appended to slab, and the grown slab.
func newBitsetDomain(slab []uint64, values []int) (*bitsetDomain, []uint64) {
	hi := 0
	for _, v := range values {
		if v < 0 {
			panic("cp: bitset domain values must be non-negative")
		}
		if v > hi {
			hi = v
		}
	}
	off := len(slab)
	slab = append(slab, make([]uint64, hi/64+1)...)
	d := &bitsetDomain{words: slab[off:len(slab):len(slab)]}
	for _, v := range values {
		if d.words[v/64]&(1<<uint(v%64)) == 0 {
			d.words[v/64] |= 1 << uint(v%64)
			d.n++
		}
	}
	d.lo = d.scanUp(0)
	d.hi = d.scanDown(hi)
	return d, slab
}

func (d *bitsetDomain) scanUp(from int) int {
	for w := from / 64; w < len(d.words); w++ {
		word := d.words[w]
		if w == from/64 {
			word &= ^uint64(0) << uint(from%64)
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

func (d *bitsetDomain) scanDown(from int) int {
	for w := from / 64; w >= 0; w-- {
		word := d.words[w]
		if w == from/64 {
			word &= ^uint64(0) >> uint(63-from%64)
		}
		if word != 0 {
			return w*64 + 63 - bits.LeadingZeros64(word)
		}
	}
	return -1
}

func (d *bitsetDomain) min() int  { return d.lo }
func (d *bitsetDomain) max() int  { return d.hi }
func (d *bitsetDomain) size() int { return d.n }

func (d *bitsetDomain) contains(v int) bool {
	if v < 0 || v/64 >= len(d.words) {
		return false
	}
	return d.words[v/64]&(1<<uint(v%64)) != 0
}

func (d *bitsetDomain) removeValue(v int) bool {
	if !d.contains(v) {
		return false
	}
	d.words[v/64] &^= 1 << uint(v%64)
	d.n--
	if d.n == 0 {
		d.lo, d.hi = -1, -1
		return true
	}
	if v == d.lo {
		d.lo = d.scanUp(v)
	}
	if v == d.hi {
		d.hi = d.scanDown(v)
	}
	return true
}

func (d *bitsetDomain) removeBelow(v int) bool {
	changed := false
	for d.n > 0 && d.lo < v {
		d.removeValue(d.lo)
		changed = true
	}
	return changed
}

func (d *bitsetDomain) removeAbove(v int) bool {
	changed := false
	for d.n > 0 && d.hi > v {
		d.removeValue(d.hi)
		changed = true
	}
	return changed
}

func (d *bitsetDomain) removeMask(mask []uint64) bool {
	changed := false
	for w, word := range d.words {
		m := ^uint64(0)
		if w < len(mask) {
			m = mask[w]
		}
		if hit := word & m; hit != 0 {
			d.words[w] = word &^ m
			d.n -= bits.OnesCount64(hit)
			changed = true
		}
	}
	switch {
	case !changed:
	case d.n == 0:
		d.lo, d.hi = -1, -1
	default:
		d.lo = d.scanUp(d.lo)
		d.hi = d.scanDown(d.hi)
	}
	return changed
}

func (d *bitsetDomain) next(from int) int {
	if from <= d.lo {
		return d.lo
	}
	if from > d.hi {
		return -1
	}
	return d.scanUp(from)
}

func (d *bitsetDomain) extent() extent     { return extent{n: d.n, lo: d.lo, hi: d.hi} }
func (d *bitsetDomain) setExtent(e extent) { d.n, d.lo, d.hi = e.n, e.lo, e.hi }

func (d *bitsetDomain) values() []int {
	out := make([]int, 0, d.n)
	for v := d.lo; v >= 0; v = d.next(v + 1) {
		out = append(out, v)
	}
	return out
}

// boundsDomain is an interval [lo, hi] without holes, for large
// numeric variables that are only ever tightened at the bounds.
type boundsDomain struct {
	lo, hi int
}

func (d *boundsDomain) min() int { return d.lo }
func (d *boundsDomain) max() int { return d.hi }
func (d *boundsDomain) size() int {
	if d.hi < d.lo {
		return 0
	}
	return d.hi - d.lo + 1
}

func (d *boundsDomain) contains(v int) bool { return v >= d.lo && v <= d.hi }

func (d *boundsDomain) removeValue(v int) bool {
	switch v {
	case d.lo:
		d.lo++
		return true
	case d.hi:
		d.hi--
		return true
	default:
		if v < d.lo || v > d.hi {
			return false
		}
		panic("cp: interior removal on a bounds-only domain")
	}
}

func (d *boundsDomain) removeBelow(v int) bool {
	if v <= d.lo {
		return false
	}
	d.lo = v
	return true
}

func (d *boundsDomain) removeAbove(v int) bool {
	if v >= d.hi {
		return false
	}
	d.hi = v
	return true
}

// removeMask trims masked values off both ends; a masked value left
// between the bounds panics like any interior removal.
func (d *boundsDomain) removeMask(mask []uint64) bool {
	masked := func(v int) bool {
		return v < 0 || v/64 >= len(mask) || mask[v/64]&(1<<uint(v%64)) != 0
	}
	lo, hi := d.lo, d.hi
	for d.lo <= d.hi && masked(d.lo) {
		d.lo++
	}
	for d.hi >= d.lo && masked(d.hi) {
		d.hi--
	}
	for v := d.lo + 1; v < d.hi; v++ {
		if masked(v) {
			panic("cp: interior removal on a bounds-only domain")
		}
	}
	return d.lo != lo || d.hi != hi
}

// next cannot tell "none" from the value -1: callers that allow
// negative bounds compare against max() instead.
func (d *boundsDomain) next(from int) int {
	if from > d.hi {
		return -1
	}
	return max(from, d.lo)
}

func (d *boundsDomain) extent() extent     { return extent{lo: d.lo, hi: d.hi} }
func (d *boundsDomain) setExtent(e extent) { d.lo, d.hi = e.lo, e.hi }

func (d *boundsDomain) values() []int {
	if d.hi < d.lo {
		return nil
	}
	out := make([]int, 0, d.hi-d.lo+1)
	for v := d.lo; v <= d.hi; v++ {
		out = append(out, v)
	}
	return out
}
