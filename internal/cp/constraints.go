package cp

import (
	"fmt"

	"cwcs/internal/packing"
)

// NotEqualOffset is the constraint x != y + offset. It propagates once
// one side is bound. With offset 0 it is a plain disequality; offsets
// express diagonal constraints (n-queens in the tests).
type NotEqualOffset struct {
	X, Y   *IntVar
	Offset int
}

// Vars returns the two operands.
func (c *NotEqualOffset) Vars() []*IntVar { return []*IntVar{c.X, c.Y} }

// Propagate removes the forbidden value from the unbound side.
func (c *NotEqualOffset) Propagate(s *Solver) error {
	if c.Y.Bound() {
		if err := s.RemoveValue(c.X, c.Y.Value()+c.Offset); err != nil {
			return err
		}
	}
	if c.X.Bound() {
		if err := s.RemoveValue(c.Y, c.X.Value()-c.Offset); err != nil {
			return err
		}
	}
	return nil
}

// Packing is the multi-knapsack viability constraint of §4.3: given
// assignment variables (one per item, domain = bin indices), item
// weights and bin capacities, it enforces
//
//	sum of weights of the items packed on bin b <= Capacity[b]
//
// for every bin. It prunes bins that cannot accept an item on top of
// the already-assigned load, and fails early when the total remaining
// weight exceeds what the bins can still absorb. With UseKnapsack it
// tightens the absorbable load per bin with the dynamic-programming
// subset-sum bound (Trick 2001), catching dead ends plain capacity
// arithmetic misses.
type Packing struct {
	// Name tags failure messages (e.g. "memory" or "cpu").
	Name string
	// Items are the assignment variables; Items[i] = b packs item i on
	// bin b.
	Items []*IntVar
	// Weights[i] is the weight of item i. Zero-weight items are
	// ignored by propagation (they always fit).
	Weights []int
	// Capacity[b] is the capacity of bin b.
	Capacity []int
	// UseKnapsack enables the DP subset-sum bound.
	UseKnapsack bool
}

// Vars returns the item assignment variables.
func (c *Packing) Vars() []*IntVar { return c.Items }

// Propagate enforces the capacity constraints.
func (c *Packing) Propagate(s *Solver) error {
	nbins := len(c.Capacity)
	assigned, unboundWeight, err := c.loads()
	if err != nil {
		return err
	}
	// Prune bins that cannot take an item anymore. Pruning may bind a
	// variable, so the loads are recomputed afterwards: the global
	// bound below must not see a half-updated picture.
	for i, v := range c.Items {
		if v.Bound() || c.Weights[i] == 0 {
			continue
		}
		for _, b := range v.Values() {
			if assigned[b]+c.Weights[i] > c.Capacity[b] {
				if err := s.RemoveValue(v, b); err != nil {
					return err
				}
			}
		}
	}
	if assigned, unboundWeight, err = c.loads(); err != nil {
		return err
	}
	if unboundWeight == 0 {
		return nil
	}
	// Global absorbable-load bound.
	absorbable := 0
	var candWeights [][]int
	if c.UseKnapsack {
		candWeights = make([][]int, nbins)
		for i, v := range c.Items {
			if v.Bound() || c.Weights[i] == 0 {
				continue
			}
			for _, b := range v.Values() {
				candWeights[b] = append(candWeights[b], c.Weights[i])
			}
		}
	}
	for b := 0; b < nbins; b++ {
		free := c.Capacity[b] - assigned[b]
		if free <= 0 {
			continue
		}
		if c.UseKnapsack {
			absorbable += packing.MaxReachableLoad(free, candWeights[b])
		} else {
			absorbable += free
		}
	}
	if absorbable < unboundWeight {
		return fmt.Errorf("%w: %s remaining weight %d exceeds absorbable %d", ErrFailed, c.Name, unboundWeight, absorbable)
	}
	return nil
}

// loads tallies the bound (per-bin) and unbound weights and checks the
// hard per-bin overloads.
func (c *Packing) loads() (assigned []int, unboundWeight int, err error) {
	assigned = make([]int, len(c.Capacity))
	for i, v := range c.Items {
		if c.Weights[i] == 0 {
			continue
		}
		if v.Bound() {
			assigned[v.Value()] += c.Weights[i]
		} else {
			unboundWeight += c.Weights[i]
		}
	}
	for b, load := range assigned {
		if load > c.Capacity[b] {
			return nil, 0, fmt.Errorf("%w: %s bin %d overloaded (%d > %d)", ErrFailed, c.Name, b, load, c.Capacity[b])
		}
	}
	return assigned, unboundWeight, nil
}

// FuncConstraint adapts a function into a Constraint, for
// problem-specific propagators (the reconfiguration cost bound in
// internal/core) and for tests.
type FuncConstraint struct {
	// On are the watched variables.
	On []*IntVar
	// Run is the propagation body.
	Run func(s *Solver) error
}

// Vars returns the watched variables.
func (c *FuncConstraint) Vars() []*IntVar { return c.On }

// Propagate invokes the body.
func (c *FuncConstraint) Propagate(s *Solver) error { return c.Run(s) }
