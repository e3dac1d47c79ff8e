package cp

import (
	"fmt"
	"testing"
)

// packedModel is a solver the shape of the optimizer's: items over
// bins under two Packing constraints, propagated to its first
// fixpoint, so every scratch buffer has its size.
func packedModel(t *testing.T, bins, items int) (*Solver, []*IntVar, *Packing) {
	t.Helper()
	s := NewSolver()
	all := make([]int, bins)
	for b := range all {
		all[b] = b
	}
	vars := make([]*IntVar, items)
	mem, cpu := make([]int, items), make([]int, items)
	for i := range vars {
		vars[i] = s.NewEnumVar(fmt.Sprintf("i%d", i), all)
		mem[i], cpu[i] = 1+i%5, i%2
	}
	memCap, cpuCap := make([]int, bins), make([]int, bins)
	for b := range memCap {
		memCap[b], cpuCap[b] = 8, 2
	}
	p := &Packing{Name: "mem", Items: vars, Weights: mem, Capacity: memCap}
	s.Post(p)
	s.Post(&Packing{Name: "cpu", Items: vars, Weights: cpu, Capacity: cpuCap})
	for _, v := range vars[:items/3] { // some bound, as inside a search
		if err := s.Assign(v, v.Min()); err != nil {
			t.Fatal(err)
		}
		if err := s.propagate(); err != nil {
			t.Fatal(err)
		}
	}
	return s, vars, p
}

// TestHotPathAllocatesNothing pins what a search node is made of at
// zero allocations once its buffers are sized: one Packing
// propagation, a branch pushed on the trail and undone, a restore of
// every domain, and one run of the queue to fixpoint with every
// constraint woken after a restore, which is a full pass of each.
func TestHotPathAllocatesNothing(t *testing.T) {
	s, vars, p := packedModel(t, 100, 150)
	saved := s.SaveState()
	free := vars[len(vars)-1]
	for _, step := range []struct {
		name string
		run  func()
	}{
		{"Packing.Propagate", func() {
			if err := p.Propagate(s); err != nil {
				t.Error(err)
			}
		}},
		{"push and undo", func() {
			s.open()
			if err := s.Assign(free, free.Min()); err != nil {
				t.Error(err)
			}
			_ = s.propagate() // a failure drains the queue all the same
			s.undo()
		}},
		{"restore", func() {
			s.RestoreState(saved)
		}},
		{"propagate to fixpoint", func() {
			s.RestoreState(saved)
			for id := range s.cons {
				s.enqueue(id)
			}
			if err := s.propagate(); err != nil {
				t.Error(err)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(50, step.run); allocs != 0 {
			t.Errorf("%s: %v allocations per run, want 0", step.name, allocs)
		}
	}
	if len(s.frames) != 0 || len(s.trail) != 0 || len(s.boundsTrail) != 0 {
		t.Errorf("%d frames, %d words and %d bounds left on the trail, want none", len(s.frames), len(s.trail), len(s.boundsTrail))
	}
}
