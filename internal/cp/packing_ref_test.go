package cp

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refPacking is Packing as it propagated before the masks: a scan of
// every value of every unbound item against the loads, kept verbatim
// as the reference the word-parallel form is compared with. It indexes
// its loads with whatever the domains hold, so it is only ever given
// bins that exist.
type refPacking struct {
	Name     string
	Items    []*IntVar
	Weights  []int
	Capacity []int
}

func (c *refPacking) Vars() []*IntVar { return c.Items }

func (c *refPacking) Propagate(s *Solver) error {
	nbins := len(c.Capacity)
	assigned, unboundWeight, err := c.loads()
	if err != nil {
		return err
	}
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
	absorbable := 0
	for b := 0; b < nbins; b++ {
		free := c.Capacity[b] - assigned[b]
		if free <= 0 {
			continue
		}
		absorbable += free
	}
	if absorbable < unboundWeight {
		return fmt.Errorf("%w: %s remaining weight %d exceeds absorbable %d", ErrFailed, c.Name, unboundWeight, absorbable)
	}
	return nil
}

func (c *refPacking) loads() (assigned []int, unboundWeight int, err error) {
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

// maskPacking is Packing as it propagated before it learned which items
// changed: every run tallies every item and prunes every unbound one
// with one mask per weight class over every bin. Kept verbatim as the
// reference the incremental form is compared with.
type maskPacking struct {
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
func (c *maskPacking) Vars() []*IntVar { return c.Items }

// Propagate enforces the capacity constraints.
func (c *maskPacking) Propagate(s *Solver) error {
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
func (c *maskPacking) classify() {
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
func (c *maskPacking) refusing(w int, mask []uint64) {
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
func (c *maskPacking) tally() (unboundWeight int, err error) {
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

// TestPackingMatchesScanReference propagates random states — 1 to 130
// bins, so the masks cross the 64- and 128-bit word edges, zero
// weights, bound and unbound items — through Packing and through the
// scan it replaced, each to its fixpoint: the same verdict, and on success the same domains.
func TestPackingMatchesScanReference(t *testing.T) {
	const states = 3000
	failed := 0
	for seed := int64(0); seed < states; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nbins := 1 + rng.Intn(130)
		if seed%5 == 0 {
			nbins = []int{1, 63, 64, 65, 127, 128, 129, 130}[rng.Intn(8)]
		}
		capacity := make([]int, nbins)
		for b := range capacity {
			capacity[b] = rng.Intn(12)
		}
		nitems := 1 + rng.Intn(14)
		weights := make([]int, nitems)
		domains := make([][]int, nitems)
		for i := range weights {
			weights[i] = rng.Intn(1 + rng.Intn(8)) // zero often enough
			switch rng.Intn(3) {
			case 0: // bound
				domains[i] = []int{rng.Intn(nbins)}
			case 1: // every bin
				for b := 0; b < nbins; b++ {
					domains[i] = append(domains[i], b)
				}
			default:
				for k := 1 + rng.Intn(nbins); k > 0; k-- {
					domains[i] = append(domains[i], rng.Intn(nbins))
				}
			}
		}
		build := func(post func(items []*IntVar) Constraint) (*Solver, []*IntVar) {
			s := NewSolver()
			items := make([]*IntVar, nitems)
			for i := range items {
				items[i] = s.NewEnumVar(fmt.Sprintf("i%d", i), domains[i])
			}
			s.Post(post(items))
			return s, items
		}
		s, items := build(func(items []*IntVar) Constraint {
			return &Packing{Name: "new", Items: items, Weights: weights, Capacity: capacity}
		})
		ref, refItems := build(func(items []*IntVar) Constraint {
			return &refPacking{Name: "ref", Items: items, Weights: weights, Capacity: capacity}
		})
		err, refErr := s.propagate(), ref.propagate()
		if (err == nil) != (refErr == nil) || (err != nil && !(errors.Is(err, ErrFailed) && errors.Is(refErr, ErrFailed))) {
			t.Fatalf("seed %d: verdict %v, reference %v", seed, err, refErr)
		}
		if err != nil {
			failed++
			continue
		}
		for i := range items {
			if got, want := items[i].Values(), refItems[i].Values(); !slices.Equal(got, want) {
				t.Fatalf("seed %d (%d bins): item %d (weight %d) = %v, reference %v",
					seed, nbins, i, weights[i], got, want)
			}
		}
	}
	if failed < states/10 || failed > states*9/10 {
		t.Fatalf("%d of %d states failed: the generator no longer exercises both verdicts", failed, states)
	}
}

// TestPackingIgnoresBinsThatDoNotExist: a domain may hold values past
// the last bin (the variable was made for something else too). Such a
// bin holds nothing, so a weighted item loses those values, and one
// bound to such a bin fails — neither indexes the loads with it.
func TestPackingIgnoresBinsThatDoNotExist(t *testing.T) {
	s := NewSolver()
	a := s.NewEnumVar("a", []int{0, 1, 2, 70, 200})
	free := s.NewEnumVar("free", []int{1, 5})
	s.Post(&Packing{Name: "p", Items: []*IntVar{a, free}, Weights: []int{2, 0}, Capacity: []int{3, 1}})
	if err := s.propagate(); err != nil {
		t.Fatal(err)
	}
	if !a.Bound() || a.Value() != 0 {
		t.Fatalf("a = %v, want bound to bin 0 (bin 1 is too small, 2, 70 and 200 do not exist)", a)
	}
	if free.Size() != 2 {
		t.Fatalf("free = %v: a weightless item is not this constraint's business", free)
	}

	s = NewSolver()
	lost := s.NewEnumVar("lost", []int{3})
	other := s.NewEnumVar("other", []int{0, 1, 9})
	s.Post(&Packing{Name: "p", Items: []*IntVar{lost, other}, Weights: []int{1, 1}, Capacity: []int{3, 3}})
	if err := s.propagate(); !errors.Is(err, ErrFailed) {
		t.Fatalf("an item bound to a bin that does not exist: %v, want ErrFailed", err)
	}
}
