package cp

// AllDifferent constrains every pair of variables to take distinct
// values. Propagation combines value elimination (a bound variable's
// value leaves every other domain) with a pigeonhole test (fewer
// distinct candidate values than variables is a wipe-out) and Hall
// interval detection on small domains: if k variables share a union of
// exactly k candidate values, those values are removed from every
// other domain.
type AllDifferent struct {
	Items []*IntVar
}

// Vars returns the constrained variables.
func (c *AllDifferent) Vars() []*IntVar { return c.Items }

// Propagate enforces pairwise difference.
func (c *AllDifferent) Propagate(s *Solver) error {
	// Value elimination from bound variables, to fixpoint: removing a
	// value can bind another variable.
	for changed := true; changed; {
		changed = false
		for _, v := range c.Items {
			if !v.Bound() {
				continue
			}
			val := v.Value()
			for _, w := range c.Items {
				if w == v || !w.Contains(val) {
					continue
				}
				if w.Bound() {
					return ErrFailed // two variables take val
				}
				if err := s.RemoveValue(w, val); err != nil {
					return err
				}
				changed = true
			}
		}
	}
	// Pigeonhole: the union of candidate values must cover the items.
	union := map[int]bool{}
	for _, v := range c.Items {
		for val := v.NextValue(0); val >= 0; val = v.NextValue(val + 1) {
			union[val] = true
		}
	}
	if len(union) < len(c.Items) {
		return ErrFailed
	}
	// Hall sets over unbound variables with small domains: any group
	// of k variables whose domains' union has size k consumes those
	// values entirely.
	return c.hallSets(s)
}

// hallSets runs a light-weight Hall-interval detection: for each
// variable with a small domain, collect the variables whose domains
// are subsets of it; if they saturate the domain, prune it elsewhere.
func (c *AllDifferent) hallSets(s *Solver) error {
	for _, pivot := range c.Items {
		if pivot.Size() > 4 { // small domains only: keep it cheap
			continue
		}
		var small [4]int
		pv := small[:0]
		for val := pivot.NextValue(0); val >= 0; val = pivot.NextValue(val + 1) {
			pv = append(pv, val)
		}
		inHall := 0
		for _, v := range c.Items {
			if subsetOf(v, pv) {
				inHall++
			}
		}
		if inHall < len(pv) {
			continue
		}
		if inHall > len(pv) {
			return ErrFailed // more variables than the values confining them
		}
		for _, v := range c.Items {
			if subsetOf(v, pv) {
				continue
			}
			for _, val := range pv {
				if v.Contains(val) {
					if err := s.RemoveValue(v, val); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// subsetOf reports whether v's domain is included in the value list.
func subsetOf(v *IntVar, values []int) bool {
	if v.Size() > len(values) {
		return false
	}
	for val := v.NextValue(0); val >= 0; val = v.NextValue(val + 1) {
		found := false
		for _, w := range values {
			if w == val {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
