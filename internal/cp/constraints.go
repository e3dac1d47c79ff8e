package cp

// Packing is the multi-knapsack viability constraint of §4.3: given
// assignment variables (one per item, domain = bin indices), item
// weights and bin capacities, it enforces
//
//	sum of weights of the items packed on bin b <= Capacity[b]
//
// for every bin. It prunes bins that cannot accept an item on top of
// the already-assigned load, and fails early when the total remaining
// weight exceeds the free capacity of the bins. A bin that does not
// exist holds nothing: values outside [0, len(Capacity)) leave the
// domains of weighted items.
//
// The exported fields are set before posting and not changed after;
// one Packing serves one solver.
type Packing struct {
	// Name tags the dimension (e.g. "memory" or "cpu").
	Name string
	// Items are the assignment variables; Items[i] = b packs item i on
	// bin b.
	Items []*IntVar
	// Weights[i] is the weight of item i. Zero-weight items are
	// ignored by propagation (they always fit).
	Weights []int
	// Capacity[b] is the capacity of bin b.
	Capacity []int

	// Worked out at the first propagation: the distinct non-zero
	// weights, and per item the index of its own among them (-1 for a
	// zero weight). Items of one weight are refused by the same bins.
	classes []int
	classOf []int
	// Scratch, reused by every propagation.
	loads []int    // per bin: weight of the items bound to it
	masks []uint64 // per class: bit b set when bin b cannot take it
	built []bool   // per class: its mask is valid for this propagation
}

// Vars returns the item assignment variables.
func (c *Packing) Vars() []*IntVar { return c.Items }

// Propagate enforces the capacity constraints.
func (c *Packing) Propagate(s *Solver) error {
	if c.classOf == nil {
		c.classify()
	}
	nbins := len(c.Capacity)
	unboundWeight, err := c.tally()
	if err != nil {
		return err
	}
	// Prune bins that cannot take an item anymore: one mask per
	// distinct weight, then one AND per word of each item's domain.
	words := (nbins + 63) / 64
	clear(c.built)
	pruned := false
	for i, v := range c.Items {
		k := c.classOf[i]
		if k < 0 || v.Bound() {
			continue
		}
		mask := c.masks[k*words : (k+1)*words]
		if !c.built[k] {
			c.built[k] = true
			c.refusing(c.classes[k], mask)
		}
		removed, err := s.removeMasked(v, mask)
		if err != nil {
			return err
		}
		pruned = pruned || removed
	}
	// Pruning may have bound a variable: the global bound below must
	// not see a half-updated picture.
	if pruned {
		if unboundWeight, err = c.tally(); err != nil {
			return err
		}
	}
	if unboundWeight == 0 {
		return nil
	}
	// Global absorbable-load bound.
	absorbable := 0
	for b := 0; b < nbins; b++ {
		if free := c.Capacity[b] - c.loads[b]; free > 0 {
			absorbable += free
		}
	}
	if absorbable < unboundWeight {
		return ErrFailed
	}
	return nil
}

// classify groups the items by weight and sizes the scratch.
func (c *Packing) classify() {
	c.classOf = make([]int, len(c.Items))
	index := map[int]int{}
	for i, w := range c.Weights[:len(c.Items)] {
		k, ok := index[w]
		switch {
		case w == 0:
			k = -1
		case !ok:
			k = len(c.classes)
			index[w] = k
			c.classes = append(c.classes, w)
		}
		c.classOf[i] = k
	}
	nbins := len(c.Capacity)
	c.loads = make([]int, nbins)
	c.masks = make([]uint64, len(c.classes)*((nbins+63)/64))
	c.built = make([]bool, len(c.classes))
}

// refusing fills mask with the bins that cannot take weight w on top
// of their load, and with every bit past the last bin.
func (c *Packing) refusing(w int, mask []uint64) {
	clear(mask)
	for b, load := range c.loads {
		if load+w > c.Capacity[b] {
			mask[b/64] |= 1 << uint(b%64)
		}
	}
	if tail := len(c.loads) % 64; tail != 0 {
		mask[len(mask)-1] |= ^uint64(0) << uint(tail)
	}
}

// tally fills loads with the bound weight per bin, failing on an
// overloaded bin or an item bound to a bin that does not exist, and
// returns the weight still unbound.
func (c *Packing) tally() (unboundWeight int, err error) {
	clear(c.loads)
	for i, v := range c.Items {
		w := c.Weights[i]
		if w == 0 {
			continue
		}
		if !v.Bound() {
			unboundWeight += w
			continue
		}
		b := v.Min()
		if b < 0 || b >= len(c.loads) {
			return 0, ErrFailed
		}
		c.loads[b] += w
	}
	for b, load := range c.loads {
		if load > c.Capacity[b] {
			return 0, ErrFailed
		}
	}
	return unboundWeight, nil
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
