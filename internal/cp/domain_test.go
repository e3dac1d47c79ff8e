package cp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetDomainBasics(t *testing.T) {
	d, _ := newBitsetDomain(nil, []int{0, 2, 5, 5, 63, 64, 130})
	if d.size() != 6 {
		t.Fatalf("size = %d, want 6 (dedup)", d.size())
	}
	if d.min() != 0 || d.max() != 130 {
		t.Fatalf("bounds = [%d,%d]", d.min(), d.max())
	}
	for _, v := range []int{0, 2, 5, 63, 64, 130} {
		if !d.contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	for _, v := range []int{-1, 1, 62, 65, 131, 1000} {
		if d.contains(v) {
			t.Fatalf("spurious %d", v)
		}
	}
	got := d.values()
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
	d, _ := newBitsetDomain(nil, []int{1, 3, 64, 127})
	if !d.removeValue(64) {
		t.Fatal("removeValue(64) reported no change")
	}
	if d.removeValue(64) {
		t.Fatal("second removeValue(64) reported change")
	}
	if d.removeValue(2) {
		t.Fatal("removing absent value reported change")
	}
	if d.min() != 1 || d.max() != 127 || d.size() != 3 {
		t.Fatalf("after removal: [%d,%d] size %d", d.min(), d.max(), d.size())
	}
	d.removeValue(1)
	if d.min() != 3 {
		t.Fatalf("min not rescanned: %d", d.min())
	}
	d.removeValue(127)
	if d.max() != 3 {
		t.Fatalf("max not rescanned: %d", d.max())
	}
	d.removeValue(3)
	if d.size() != 0 || d.min() != -1 || d.max() != -1 {
		t.Fatal("empty domain bounds wrong")
	}
}

func TestBitsetDomainBoundsRemoval(t *testing.T) {
	d, _ := newBitsetDomain(nil, []int{2, 4, 6, 8, 10})
	if !d.removeBelow(5) {
		t.Fatal("removeBelow reported no change")
	}
	if d.min() != 6 {
		t.Fatalf("min = %d", d.min())
	}
	if d.removeBelow(5) {
		t.Fatal("idempotent removeBelow reported change")
	}
	if !d.removeAbove(9) {
		t.Fatal("removeAbove reported no change")
	}
	if d.max() != 8 || d.size() != 2 {
		t.Fatalf("domain = %v", d.values())
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

func TestBitsetDomainNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative value accepted")
		}
	}()
	newBitsetDomain(nil, []int{-1})
}

func TestBoundsDomain(t *testing.T) {
	d := &boundsDomain{lo: 10, hi: 20}
	if d.size() != 11 || !d.contains(15) || d.contains(9) || d.contains(21) {
		t.Fatal("basic bounds domain broken")
	}
	if !d.removeValue(10) || d.min() != 11 {
		t.Fatal("removeValue at lower bound")
	}
	if !d.removeValue(20) || d.max() != 19 {
		t.Fatal("removeValue at upper bound")
	}
	if d.removeValue(5) {
		t.Fatal("removing out-of-range value reported change")
	}
	if !d.removeBelow(15) || d.min() != 15 {
		t.Fatal("removeBelow")
	}
	if !d.removeAbove(17) || d.max() != 17 {
		t.Fatal("removeAbove")
	}
	vals := d.values()
	if len(vals) != 3 || vals[0] != 15 || vals[2] != 17 {
		t.Fatalf("values = %v", vals)
	}
	d.removeBelow(17)
	d.removeAbove(16) // empties
	if d.size() != 0 {
		t.Fatalf("size = %d, want 0", d.size())
	}
	if (&boundsDomain{lo: 3, hi: 2}).values() != nil {
		t.Fatal("empty values not nil")
	}
	// A mask trims from the ends; values it has no word for go too.
	d = &boundsDomain{lo: 0, hi: 70}
	if !d.removeMask([]uint64{0b0011}) || d.min() != 2 || d.max() != 63 {
		t.Fatalf("removeMask left [%d,%d], want [2,63]", d.min(), d.max())
	}
	if d.removeMask([]uint64{0}) {
		t.Fatal("an empty mask reported change")
	}
}

func TestBoundsDomainInteriorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("interior removal accepted")
		}
	}()
	(&boundsDomain{lo: 0, hi: 10}).removeValue(5)
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
		d, _ := newBitsetDomain(nil, init)
		for i := 0; i < 100 && len(ref) > 0; i++ {
			v := rng.Intn(200)
			changed := d.removeValue(v)
			if changed != ref[v] {
				return false
			}
			delete(ref, v)
			if d.size() != len(ref) {
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
				if d.min() != min || d.max() != max {
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
