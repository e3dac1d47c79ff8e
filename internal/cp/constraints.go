package cp

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Packing is the multi-knapsack viability constraint of §4.3: given
// assignment variables (one per item, domain = bin indices), item
// weights and bin capacities, it enforces
//
//	sum of weights of the items packed on bin b <= Capacity[b]
//
// for every bin. It prunes bins that cannot accept an item on top of
// the already-assigned load, and fails when the items weigh more than
// the bins hold. A bin that does not exist holds nothing: values
// outside [0, len(Capacity)) leave the domains of weighted items.
// Between two restores a run counts only the items bound since the
// last, and prunes only on the bins whose load rose.
//
// The exported fields are set before posting and not changed after;
// one Packing serves one solver.
type Packing struct {
	// Name tags the dimension (e.g. "memory" or "cpu").
	Name string
	// Items are the assignment variables; Items[i] = b packs item i on
	// bin b.
	Items []*IntVar
	// Weights[i] >= 0 is the weight of item i. Zero-weight items are
	// ignored by propagation (they always fit).
	Weights []int
	// Capacity[b] is the capacity of bin b.
	Capacity []int

	// Worked out at the first propagation: the distinct non-zero
	// weights, per item the index of its own among them (-1 for a zero
	// weight), and whether the items weigh more than the bins hold (or
	// a bin holds less than nothing).
	classes []int
	classOf []int32
	heavy   bool
	// Per bin, valid until the next restore: the load of the items
	// counted; and in masks, first the bins whose load rose since the
	// last pruning, then per class those that cannot take it.
	changes delta
	loads   []int
	masks   []uint64
}

// Vars returns the item assignment variables.
func (c *Packing) Vars() []*IntVar { return c.Items }

func (c *Packing) delta() *delta { return &c.changes }

// Propagate enforces the capacity constraints.
func (c *Packing) Propagate(s *Solver) error {
	if c.classOf == nil {
		c.classify()
	}
	if c.heavy { // then the unbound weight exceeds the room, whatever is bound
		return ErrFailed
	}
	fits := math.MaxInt     // an item no heavier fits every risen bin
	if c.changes.stale(s) { // count every item, prune on every bin
		fits = -1
		clear(c.loads)
		for i := range c.Items {
			s.marks[int(c.changes.off)+i>>6] |= 1 << uint(i&63)
		}
		for b := range c.loads {
			c.masks[b>>6] |= 1 << uint(b&63)
		}
	}
	if err := c.count(s); err != nil {
		return err
	}
	// Prune the risen bins that cannot take an item anymore: one mask
	// per distinct weight, then one AND per word of each item's domain.
	words := (len(c.loads) + 63) / 64
	for wi, word := range c.masks[:words] {
		for ; word != 0 && fits >= 0; word &= word - 1 {
			b := wi<<6 + bits.TrailingZeros64(word)
			fits = min(fits, c.Capacity[b]-c.loads[b])
		}
	}
	if fits == math.MaxInt {
		return nil
	}
	for k, w := range c.classes {
		if w > fits {
			c.refusing(w, c.masks[(k+1)*words:(k+2)*words])
		}
	}
	pruned := false
	for i, v := range c.Items {
		k := int(c.classOf[i])
		if k < 0 || c.Weights[i] <= fits || v.Bound() {
			continue
		}
		removed, err := s.removeMasked(v, c.masks[(k+1)*words:(k+2)*words])
		if err != nil {
			return err
		}
		pruned = pruned || removed
	}
	clear(c.masks[:words])
	// Pruning may have bound an item: its bin may overload, and what it
	// refuses now is the next run's to prune.
	if pruned {
		return c.count(s)
	}
	return nil
}

// classify groups the items by weight and sizes the scratch.
func (c *Packing) classify() {
	c.classOf = make([]int32, len(c.Items))
	weight := 0
	for i, w := range c.Weights[:len(c.Items)] {
		k := slices.Index(c.classes, w)
		switch {
		case w == 0:
			k = -1
		case k < 0:
			k = len(c.classes)
			c.classes = append(c.classes, w)
		}
		c.classOf[i] = int32(k)
		weight += w
	}
	nbins := len(c.Capacity)
	for _, capacity := range c.Capacity {
		weight -= capacity
		c.heavy = c.heavy || capacity < 0 // a bin overloaded empty
	}
	c.heavy = c.heavy || weight > 0
	c.loads = make([]int, nbins)
	c.masks = make([]uint64, (len(c.classes)+1)*((nbins+63)/64))
}

// refusing fills mask with the bins whose load rose and that cannot
// take weight w on top of it, and with every bit past the last bin.
func (c *Packing) refusing(w int, mask []uint64) {
	clear(mask)
	for wi, word := range c.masks[:len(mask)] {
		for ; word != 0; word &= word - 1 {
			b := wi<<6 + bits.TrailingZeros64(word)
			if c.loads[b]+w > c.Capacity[b] {
				mask[wi] |= 1 << uint(b&63)
			}
		}
	}
	if tail := len(c.loads) % 64; tail != 0 {
		mask[len(mask)-1] |= ^uint64(0) << uint(tail)
	}
}

// count adds each newly bound weighted item to its bin's load, failing
// on a bin that does not exist or cannot take it, and marks the bin.
func (c *Packing) count(s *Solver) error {
	for i := c.changes.take(s, 0); i >= 0; i = c.changes.take(s, i) {
		w, v := c.Weights[i], c.Items[i]
		if w == 0 || !v.Bound() {
			continue
		}
		b := v.Min()
		if b < 0 || b >= len(c.loads) || c.loads[b]+w > c.Capacity[b] {
			return ErrFailed
		}
		c.loads[b] += w
		c.masks[b>>6] |= 1 << uint(b&63)
	}
	return nil
}

// TableSum bounds an objective by a sum of table entries,
//
//	Obj >= Fixed + sum over i of Rows[i][x_i]
//
// where x_i is the value of Items[i], an enumerated variable: it raises
// Obj's minimum to Fixed plus each item's cheapest entry left, and
// removes the values whose entry exceeds that by more than the slack
// Obj.Max() leaves. Rows[i] is indexed by value; Orders[i] lists
// Items[i]'s initial domain cheapest first. Between two restores a run
// sums only the items that changed and prunes only when the slack
// shrank, resuming each walk of an order where the last stopped. The
// fields are set before posting; Rows and Orders are only read.
type TableSum struct {
	Obj    *IntVar
	Items  []*IntVar
	Fixed  int
	Rows   [][]int32
	Orders [][]int32

	// Valid until the next restore: per item, where its walks of its
	// order stopped; their sum; the slack last pruned to.
	changes   delta
	walks     []walk
	lb, slack int
	mask      []uint64 // scratch: the values a full pass removes
}

// walk holds the position in an item's order of its cheapest value
// left, and one past its last value within the slack.
type walk struct{ cheap, top int32 }

// Vars returns the objective, then the items.
func (c *TableSum) Vars() []*IntVar { return append([]*IntVar{c.Obj}, c.Items...) }

func (c *TableSum) delta() *delta { return &c.changes }

// Propagate enforces the bound.
func (c *TableSum) Propagate(s *Solver) error {
	full, lb := c.changes.stale(s), c.lb
	if full {
		if c.walks == nil {
			c.walks = make([]walk, len(c.Items))
		}
		clear(c.walks)
		lb = c.Fixed
		for i := range c.Items {
			lb += c.raise(i)
		}
	} else {
		// Mark k is item k-1's; mark 0, the objective's, moves only the
		// slack.
		s.marks[c.changes.off] &^= 1
		for k := c.changes.take(s, 0); k >= 0; k = c.changes.take(s, k) {
			before := int(c.Rows[k-1][c.Orders[k-1][c.walks[k-1].cheap]])
			lb += c.raise(k-1) - before
		}
	}
	if err := s.RemoveBelow(c.Obj, lb); err != nil {
		return err
	}
	slack := c.Obj.Max() - lb
	if !full && slack == c.slack {
		return nil // an item's limit can only have risen
	}
	c.lb, c.slack = lb, slack
	for i, v := range c.Items {
		if v.Bound() {
			continue
		}
		row, order := c.Rows[i], c.Orders[i]
		limit := int(row[order[c.walks[i].cheap]]) + slack
		k := int(c.walks[i].top) - 1
		if full { // most of the order has left the domain: read what is left
			if err := c.trim(s, v, row, limit); err != nil {
				return err
			}
			k = sort.Search(len(order), func(k int) bool { return int(row[order[k]]) > limit }) - 1
		}
		for ; k >= 0 && int(row[order[k]]) > limit; k-- {
			if err := s.RemoveValue(v, int(order[k])); err != nil {
				return err
			}
		}
		c.walks[i].top = int32(k + 1)
	}
	return nil
}

// trim removes in one go the values of v whose entry in row is over
// limit, reading v's domain a word at a time.
func (c *TableSum) trim(s *Solver, v *IntVar, row []int32, limit int) error {
	words := v.words
	if len(words) > len(c.mask) {
		c.mask = make([]uint64, len(words))
	}
	mask := c.mask[:len(words)]
	for w, word := range words {
		mask[w] = 0
		for ; word != 0; word &= word - 1 {
			if b := bits.TrailingZeros64(word); int(row[w<<6+b]) > limit {
				mask[w] |= 1 << uint(b)
			}
		}
	}
	_, err := s.removeMasked(v, mask)
	return err
}

// raise returns item i's cheapest entry left, walking on to it unless
// the item is bound, as it then stays until the next restore.
func (c *TableSum) raise(i int) int {
	v, row, order := c.Items[i], c.Rows[i], c.Orders[i]
	if v.Bound() {
		return int(row[v.Min()])
	}
	p := &c.walks[i].cheap
	for int(*p) < len(order)-1 && !v.Contains(int(order[*p])) {
		*p++
	}
	return int(row[order[*p]])
}

// FuncConstraint adapts a function into a Constraint, for
// problem-specific propagators (placement rules, the benchmark's node
// budget) and for tests.
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
