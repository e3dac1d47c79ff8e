package cp

import "sync/atomic"

// This file holds the cp-level piece of a parallel portfolio search:
// the bound its workers share through Options.SharedBound. The
// portfolio itself lives with the caller that can score solutions
// (core.Optimizer races one Minimize per worker, bounded in
// OnSolution on the true plan cost).

// Incumbent is the portfolio-wide upper bound on acceptable objective
// values: a worker that finds a solution with objective v tightens the
// bound to v-1, and every worker prunes its objective against it.
type Incumbent struct{ bound atomic.Int64 }

// NewIncumbent returns an incumbent bound starting at bound.
func NewIncumbent(bound int) *Incumbent {
	b := &Incumbent{}
	b.bound.Store(int64(bound))
	return b
}

// Bound returns the current bound.
func (b *Incumbent) Bound() int { return int(b.bound.Load()) }

// Tighten lowers the bound to v and reports whether v improved it; a
// value at or above the current bound is a no-op.
func (b *Incumbent) Tighten(v int) bool {
	for {
		cur := b.bound.Load()
		if int64(v) >= cur {
			return false
		}
		if b.bound.CompareAndSwap(cur, int64(v)) {
			return true
		}
	}
}
