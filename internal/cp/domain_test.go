package cp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// enumVar returns a fresh solver's variable over exactly values.
func enumVar(values ...int) *IntVar { return NewSolver().NewEnumVar("d", values) }

func TestBitsetDomainBasics(t *testing.T) {
	d := enumVar(0, 2, 5, 5, 63, 64, 130)
	if d.Size() != 6 {
		t.Fatalf("size = %d, want 6 (dedup)", d.Size())
	}
	if d.Min() != 0 || d.Max() != 130 {
		t.Fatalf("bounds = [%d,%d]", d.Min(), d.Max())
	}
	for _, v := range []int{0, 2, 5, 63, 64, 130} {
		if !d.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	for _, v := range []int{-1, 1, 62, 65, 131, 1000} {
		if d.Contains(v) {
			t.Fatalf("spurious %d", v)
		}
	}
	got := d.Values()
	want := []int{0, 2, 5, 63, 64, 130}
	if len(got) != len(want) {
		t.Fatalf("values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
}

func TestBitsetDomainRemoval(t *testing.T) {
	d := enumVar(1, 3, 64, 127)
	if !d.removeValue(64) {
		t.Fatal("removeValue(64) reported no change")
	}
	if d.removeValue(64) {
		t.Fatal("second removeValue(64) reported change")
	}
	if d.removeValue(2) {
		t.Fatal("removing absent value reported change")
	}
	if d.Min() != 1 || d.Max() != 127 || d.Size() != 3 {
		t.Fatalf("after removal: [%d,%d] size %d", d.Min(), d.Max(), d.Size())
	}
	d.removeValue(1)
	if d.Min() != 3 {
		t.Fatalf("min not rescanned: %d", d.Min())
	}
	d.removeValue(127)
	if d.Max() != 3 {
		t.Fatalf("max not rescanned: %d", d.Max())
	}
	d.removeValue(3)
	if d.Size() != 0 || d.Min() != -1 || d.Max() != -1 {
		t.Fatal("empty domain bounds wrong")
	}
}

func TestBitsetDomainBoundsRemoval(t *testing.T) {
	d := enumVar(2, 4, 6, 8, 10)
	if !d.removeBelow(5) {
		t.Fatal("removeBelow reported no change")
	}
	if d.Min() != 6 {
		t.Fatalf("min = %d", d.Min())
	}
	if d.removeBelow(5) {
		t.Fatal("idempotent removeBelow reported change")
	}
	if !d.removeAbove(9) {
		t.Fatal("removeAbove reported no change")
	}
	if d.Max() != 8 || d.Size() != 2 {
		t.Fatalf("domain = %v", d.Values())
	}
}

func TestStateIndependentOfDomains(t *testing.T) {
	s := NewSolver()
	v := s.NewEnumVar("v", []int{1, 2, 3})
	b := s.NewIntVar("b", 10, 20)
	st := s.SaveState()
	if s.RemoveValue(v, 2) != nil || s.RemoveBelow(b, 15) != nil {
		t.Fatal("removal failed")
	}
	s.RestoreState(st)
	if !v.Contains(2) || v.Size() != 3 || b.Min() != 10 {
		t.Fatal("saved state shares storage with the live domains")
	}
}

// TestStateCoversTheVariablesBeforeIt: a state taken before more
// variables were created — enough of them to move the slab — restores
// the variables it covers exactly and leaves the later ones as they
// are.
func TestStateCoversTheVariablesBeforeIt(t *testing.T) {
	s := NewSolver()
	a := s.NewEnumVar("a", []int{0, 5, 70, 130})
	obj := s.NewIntVar("obj", 0, 100)
	st := s.SaveState()
	var later []*IntVar
	for i := 0; i < 40; i++ {
		later = append(later, s.NewEnumVar(fmt.Sprintf("e%d", i), []int{1, 64 + i, 200}))
	}
	late := s.NewIntVar("late", 0, 9)
	for _, v := range later {
		if s.RemoveValue(v, 1) != nil {
			t.Fatal("removal failed")
		}
	}
	if s.Assign(a, 70) != nil || s.RemoveBelow(obj, 30) != nil || s.RemoveAbove(late, 4) != nil {
		t.Fatal("removal failed")
	}
	for round := 0; round < 2; round++ {
		s.RestoreState(st)
		if got := a.Values(); !slices.Equal(got, []int{0, 5, 70, 130}) || a.Size() != 4 || a.Min() != 0 || a.Max() != 130 {
			t.Fatalf("restore %d: a = %v (size %d, [%d, %d])", round, got, a.Size(), a.Min(), a.Max())
		}
		if obj.Min() != 0 || obj.Max() != 100 || obj.Size() != 101 {
			t.Fatalf("restore %d: obj = %v", round, obj)
		}
		for i, v := range later {
			if got := v.Values(); !slices.Equal(got, []int{64 + i, 200}) || v.Size() != 2 {
				t.Fatalf("restore %d: %v, created after the state, changed", round, v)
			}
		}
		if late.Min() != 0 || late.Max() != 4 || late.Size() != 5 {
			t.Fatalf("restore %d: late = %v, created after the state, changed", round, late)
		}
	}
}

// TestStateKeepsObjectiveBounds: the bounds of a bounds-only objective
// come back from a state with its size, however they moved after it —
// down to an empty domain.
func TestStateKeepsObjectiveBounds(t *testing.T) {
	s := NewSolver()
	x := s.NewEnumVar("x", []int{1, 2})
	obj := s.NewIntVar("cost", -20, 500)
	if s.RemoveBelow(obj, 10) != nil || s.RemoveAbove(obj, 50) != nil || s.RemoveValue(obj, 50) != nil {
		t.Fatal("removal failed")
	}
	st := s.SaveState()
	for _, cut := range []func() error{
		func() error { return s.RemoveBelow(obj, 40) },
		func() error { return s.Assign(obj, 12) },
		func() error { return s.RemoveAbove(obj, 5) }, // wipes it out
	} {
		_ = s.RemoveValue(x, 2)
		_ = cut()
		s.RestoreState(st)
		if obj.Min() != 10 || obj.Max() != 49 || obj.Size() != 40 || x.Size() != 2 {
			t.Fatalf("after a restore: %v %v, want cost in [10..49] and x in {1, 2}", obj, x)
		}
	}
}

func TestBitsetDomainNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative value accepted")
		}
	}()
	enumVar(-1)
}

func TestBoundsDomain(t *testing.T) {
	d := NewSolver().NewIntVar("d", 10, 20)
	if d.Size() != 11 || !d.Contains(15) || d.Contains(9) || d.Contains(21) {
		t.Fatal("basic bounds domain broken")
	}
	if !d.removeValue(10) || d.Min() != 11 {
		t.Fatal("removeValue at lower bound")
	}
	if !d.removeValue(20) || d.Max() != 19 {
		t.Fatal("removeValue at upper bound")
	}
	if d.removeValue(5) {
		t.Fatal("removing out-of-range value reported change")
	}
	if !d.removeBelow(15) || d.Min() != 15 {
		t.Fatal("removeBelow")
	}
	if !d.removeAbove(17) || d.Max() != 17 {
		t.Fatal("removeAbove")
	}
	vals := d.Values()
	if len(vals) != 3 || vals[0] != 15 || vals[2] != 17 {
		t.Fatalf("values = %v", vals)
	}
	d.removeBelow(17)
	d.removeAbove(16) // empties
	if d.Size() != 0 {
		t.Fatalf("size = %d, want 0", d.Size())
	}
	if vals := d.Values(); len(vals) != 0 {
		t.Fatalf("values of an empty domain = %v", vals)
	}
}

func TestBoundsDomainInteriorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("interior removal accepted")
		}
	}()
	NewSolver().NewIntVar("d", 0, 10).removeValue(5)
}

// Property: bitset domain behaves like a sorted set under random
// removal sequences.
func TestBitsetDomainMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		var init []int
		ref := map[int]bool{}
		for i := 0; i < n; i++ {
			v := rng.Intn(200)
			init = append(init, v)
			ref[v] = true
		}
		d := NewSolver().NewEnumVar("d", init)
		for i := 0; i < 100 && len(ref) > 0; i++ {
			v := rng.Intn(200)
			changed := d.removeValue(v)
			if changed != ref[v] {
				return false
			}
			delete(ref, v)
			if d.Size() != len(ref) {
				return false
			}
			if len(ref) > 0 {
				min, max := 1<<30, -1
				for k := range ref {
					if k < min {
						min = k
					}
					if k > max {
						max = k
					}
				}
				if d.Min() != min || d.Max() != max {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
