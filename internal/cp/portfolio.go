package cp

import (
	"math/rand"
	"sync/atomic"
)

// This file holds the two cp-level pieces of a parallel portfolio
// search: the incumbent bound its workers share and the per-worker
// search strategy. The portfolio itself lives with the caller that can
// evaluate its objective (core.Optimizer races one model per worker,
// bounded on the true plan cost); the search adopts the shared bound
// through Options.SharedBound/SharedObj.

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

// Strategy configures the search heuristics of one portfolio worker.
type Strategy struct {
	// Label names the strategy in diagnostics.
	Label string
	// FirstFail and PreferValue mirror the Options fields.
	FirstFail   bool
	PreferValue bool
	// ShuffleSeed, when non-zero, shuffles the value order with a
	// deterministic stream seeded by it (shuffled-restart worker).
	ShuffleSeed int64
}

// Apply overlays the strategy on base, leaving context, decision
// variables, hints and bound sharing untouched.
func (st Strategy) Apply(base Options) Options {
	base.FirstFail = st.FirstFail
	base.PreferValue = st.PreferValue
	// Always overridden — never inherited from base: a caller-supplied
	// stream shared across workers would be a data race (rand.Rand is
	// not goroutine-safe).
	base.ValueRand = nil
	if st.ShuffleSeed != 0 {
		base.ValueRand = rand.New(rand.NewSource(st.ShuffleSeed))
	}
	return base
}
