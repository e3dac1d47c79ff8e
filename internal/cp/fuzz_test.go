package cp

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
)

// refDomain is the obviously-correct model the fuzzed domains are
// checked against: a plain value set.
type refDomain map[int]bool

func (r refDomain) values() []int {
	out := make([]int, 0, len(r))
	for v := range r {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (r refDomain) removeValue(v int) {
	delete(r, v)
}

func (r refDomain) removeBelow(v int) {
	for x := range r {
		if x < v {
			delete(r, x)
		}
	}
}

func (r refDomain) removeAbove(v int) {
	for x := range r {
		if x > v {
			delete(r, x)
		}
	}
}

// checkAgainst compares every observable of the variable's domain
// with the reference: size, min, max, contains, and ascending
// iteration, both the allocated list and the allocation-free
// NextValue.
func checkAgainst(t *testing.T, d *IntVar, r refDomain, when string) {
	t.Helper()
	vals := r.values()
	if d.Size() != len(vals) {
		t.Fatalf("%s: size %d, want %d", when, d.Size(), len(vals))
	}
	if len(vals) == 0 {
		return // emptied: the engine fails the variable and backtracks
	}
	if d.Min() != vals[0] || d.Max() != vals[len(vals)-1] {
		t.Fatalf("%s: bounds [%d,%d], want [%d,%d]", when, d.Min(), d.Max(), vals[0], vals[len(vals)-1])
	}
	got := d.Values()
	if len(got) != len(vals) {
		t.Fatalf("%s: values %v, want %v", when, got, vals)
	}
	at := d.NextValue(vals[0] - 1)
	for i := range vals {
		if got[i] != vals[i] || at != vals[i] {
			t.Fatalf("%s: values %v, next reached %d, want %v", when, got, at, vals)
		}
		at = d.NextValue(at + 1)
	}
	if at != -1 {
		t.Fatalf("%s: next went on to %d past %v", when, at, vals)
	}
	for v := -1; v <= vals[len(vals)-1]+1; v++ {
		if d.Contains(v) != r[v] {
			t.Fatalf("%s: contains(%d) = %v, want %v", when, v, d.Contains(v), r[v])
		}
	}
}

// FuzzDomainOps drives the bitset domain (the VM-assignment domain of
// the solver) through arbitrary sequences of removals, assignments,
// masks, save/restore pairs and nested trail frames opened and undone
// — a restore inside an open frame among them — and resets of the
// solver with the variables rebuilt on it, and checks every
// observable against the reference set model, one copy of which is
// kept per open frame. The byte stream encodes the initial domain then
// one operation per byte pair.
func FuzzDomainOps(f *testing.F) {
	f.Add([]byte{3, 0, 5, 9, 0x00, 0x05, 0x21, 0x03, 0x42, 0x07})
	f.Add([]byte{1, 0})
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 0x61, 0x04, 0x82, 0x06, 0x00, 0x01})
	f.Add([]byte{4, 127, 64, 32, 16, 0x83, 0x00, 0x03, 0x40})
	// Frames: open, keep a state, remove, open, restore the kept state,
	// undo twice; then a mask and an assignment undone.
	f.Add([]byte{5, 1, 63, 64, 65, 100, 127, 4, 0, 3, 0, 0, 65, 4, 0, 8, 0, 5, 0, 5, 0})
	f.Add([]byte{4, 3, 70, 90, 120, 126, 4, 0, 7, 0x55, 4, 0, 6, 91, 5, 0, 5, 0, 2, 100})
	// Open, remove, reset inside the frame behind a two-word filler,
	// remove, open, remove, undo; reset behind none, save and restore.
	f.Add([]byte{3, 10, 70, 100, 127, 4, 0, 0, 11, 9, 2, 0, 71, 4, 0, 1, 101, 5, 0, 9, 0, 3, 50, 5, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(data[0])%16 + 1
		if len(data) < 1+k {
			return
		}
		init := make([]int, 0, k)
		ref := refDomain{}
		for _, b := range data[1 : 1+k] {
			v := int(b) % 128
			init = append(init, v)
			ref[v] = true
		}
		// Two neighbours share the slab: a restore or an undo that
		// strays out of its window shows on them.
		s := NewSolver()
		left := s.NewEnumVar("left", []int{0, 63, 64})
		d := s.NewEnumVar("d", init)
		right := s.NewEnumVar("right", []int{1, 200})
		checkAgainst(t, d, ref, "after init")
		var frames []refDomain // the reference at each open frame's start
		var kept State         // the state op 3 took last, and its reference
		var keptRef refDomain

		ops := data[1+k:]
		for i := 0; i+1 < len(ops) && len(ref) > 0; i += 2 {
			op, arg := ops[i]%10, int(ops[i+1])%130-1 // probe outside [0,128) too
			switch op {
			case 0:
				before := d.Size()
				s.RemoveValue(d, arg)
				if changed := d.Size() != before; changed != ref[arg] {
					t.Fatalf("RemoveValue(%d) changed the domain: %v, reference had %v", arg, changed, ref[arg])
				}
				ref.removeValue(arg)
			case 1:
				s.RemoveBelow(d, arg)
				ref.removeBelow(arg)
			case 2:
				s.RemoveAbove(d, arg)
				ref.removeAbove(arg)
			case 3:
				// Backtracking by copy: whatever happens after a save,
				// restoring brings back the same bits and the same cached
				// size and bounds — twice from one State.
				words, want := append([]uint64(nil), d.words...), [3]int{d.n, d.lo, d.hi}
				st := s.SaveState()
				kept, keptRef = st, maps.Clone(ref)
				for round := 0; round < 2; round++ {
					s.RemoveValue(d, d.Min())
					s.RemoveAbove(d, arg+round)
					s.RemoveValue(left, 63)
					s.RemoveBelow(right, 2)
					s.RestoreState(st)
					if got := [3]int{d.n, d.lo, d.hi}; got != want || !slices.Equal(d.words, words) {
						t.Fatalf("restore %d: words %x size and bounds %v, want %x %v", round, d.words, got, words, want)
					}
				}
			case 4:
				s.open()
				frames = append(frames, maps.Clone(ref))
			case 5:
				if len(frames) == 0 {
					continue
				}
				s.undo()
				ref, frames = frames[len(frames)-1], frames[:len(frames)-1]
			case 6:
				if ref[arg] {
					if err := s.Assign(d, arg); err != nil {
						t.Fatal(err)
					}
					ref = refDomain{arg: true}
				}
			case 8:
				// A state taken at another depth, restored inside the
				// open frame: an undo still returns to the frame's start.
				if keptRef != nil {
					s.RestoreState(kept)
					ref = maps.Clone(keptRef)
				}
			case 9:
				// Reset and rebuild the three variables, d from the
				// reference, behind a filler of (arg+1)%3 words: their
				// windows held the old model's bits. Frames and the
				// kept state went with the old model.
				s.Reset()
				if words := (arg + 1) % 3; words > 0 {
					s.NewEnumVar("filler", []int{64*words - 1})
				}
				left = s.NewEnumVar("left", []int{0, 63, 64})
				d = s.NewEnumVar("d", ref.values())
				right = s.NewEnumVar("right", []int{1, 200})
				frames, kept, keptRef = nil, State{}, nil
			case 7:
				// A mask of arg%3 words, each arg's bits spread over it:
				// every value it has no word for goes too.
				mask := make([]uint64, (arg+1)%3)
				for w := range mask {
					mask[w] = uint64(arg+1) * 0x0101010101010101 >> w
				}
				s.removeMasked(d, mask)
				for x := range ref {
					if x/64 >= len(mask) || mask[x/64]&(1<<uint(x%64)) != 0 {
						delete(ref, x)
					}
				}
			}
			checkAgainst(t, d, ref, fmt.Sprintf("after op %d(%d) with %d frames open", op, arg, len(frames)))
			if left.Size() != 3 || right.Min() != 1 || right.Size() != 2 {
				t.Fatalf("after op %d: neighbours %v %v", op, left, right)
			}
		}
	})
}

// FuzzBoundsDomainOps drives the bounds-only domain (objective
// variables) through bound tightenings, mirroring the restrictions the
// engine honors: interior removal is forbidden by contract, so only
// bound removals and removeBelow/removeAbove are exercised.
func FuzzBoundsDomainOps(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x21, 0x30, 0x12, 0x01})
	f.Add([]byte{0x05, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewSolver().NewIntVar("d", 0, 127)
		ref := refDomain{}
		for v := 0; v <= 127; v++ {
			ref[v] = true
		}
		for i := 0; i+1 < len(data) && len(ref) > 0; i += 2 {
			op, arg := data[i]%3, int(data[i+1])%130-1
			switch op {
			case 0:
				d.removeBelow(arg)
				ref.removeBelow(arg)
			case 1:
				d.removeAbove(arg)
				ref.removeAbove(arg)
			case 2:
				// Bound removal only (interior removal panics by
				// design).
				v := d.Min()
				if arg%2 == 0 {
					v = d.Max()
				}
				d.removeValue(v)
				ref.removeValue(v)
			}
			checkAgainst(t, d, ref, "after op")
		}
	})
}
