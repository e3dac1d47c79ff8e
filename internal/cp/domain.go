// Package cp is a small finite-domain constraint-programming solver,
// the stand-in for the Choco 1.2.04 library the paper uses (§4.3). It
// provides integer variables over finite domains, a propagation engine
// with constraint watch lists, depth-first search with snapshot-based
// backtracking, pluggable variable/value ordering heuristics (first
// fail, prefer-current-value), branch-and-bound minimization of a
// single variable, and cooperative cancellation through a context.
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
	clone() domain
	// values returns the domain in ascending order.
	values() []int
}

// bitsetDomain enumerates values in [0, n) with one bit each.
type bitsetDomain struct {
	words []uint64
	n     int // number of set bits
	lo    int // cached minimum
	hi    int // cached maximum
}

func newBitsetDomain(values []int) *bitsetDomain {
	hi := 0
	for _, v := range values {
		if v < 0 {
			panic("cp: bitset domain values must be non-negative")
		}
		if v > hi {
			hi = v
		}
	}
	d := &bitsetDomain{words: make([]uint64, hi/64+1)}
	for _, v := range values {
		if d.words[v/64]&(1<<uint(v%64)) == 0 {
			d.words[v/64] |= 1 << uint(v%64)
			d.n++
		}
	}
	d.lo = d.scanUp(0)
	d.hi = d.scanDown(hi)
	return d
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

func (d *bitsetDomain) clone() domain {
	return &bitsetDomain{words: append([]uint64(nil), d.words...), n: d.n, lo: d.lo, hi: d.hi}
}

func (d *bitsetDomain) values() []int {
	out := make([]int, 0, d.n)
	for v := d.lo; v >= 0 && v <= d.hi; v = d.scanUp(v + 1) {
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

func (d *boundsDomain) clone() domain { c := *d; return &c }

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
