package core

import (
	"testing"

	"cwcs/internal/cp"
	"cwcs/internal/vjob"
)

// warmProblem builds a consolidation instance with a known-good
// previous assignment: four nodes, three running VMs spread out, and
// a previous solve that had already packed them onto two nodes.
func warmProblem(t *testing.T) (Problem, *vjob.Configuration) {
	t.Helper()
	cfg := mkCluster(4, 2, 4096)
	for i, host := range []string{"n00", "n01", "n02"} {
		v := vjob.NewVM([]string{"v1", "v2", "v3"}[i], "j", 1, 1024)
		cfg.AddVM(v)
		mustRun(t, cfg, v.Name, host)
	}
	warm := cfg.Clone()
	if err := warm.SetRunning("v3", "n00"); err != nil {
		t.Fatal(err)
	}
	return Problem{Src: cfg, Target: map[string]vjob.State{}}, warm
}

func TestWarmSeedReusesPreviousAssignment(t *testing.T) {
	p, warm := warmProblem(t)
	o := Optimizer{Workers: 1, WarmStart: warm}
	c, err := o.compile(p, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	seed := o.warmSeed(p, c, new(scratch))
	if seed == nil {
		t.Fatal("viable warm assignment rejected")
	}
	if seed.Dst.HostOf("v3") != "n00" {
		t.Fatalf("warm seed placed v3 on %s", seed.Dst.HostOf("v3"))
	}
	// Only v3 moves: one migration of 1024 MiB.
	if seed.Cost != 1024 {
		t.Fatalf("warm seed cost = %d, want 1024", seed.Cost)
	}
}

func TestWarmSeedRejectsVanishedHost(t *testing.T) {
	p, _ := warmProblem(t)
	// A warm configuration whose host is not part of this cluster.
	warm := mkCluster(5, 2, 4096)
	v := vjob.NewVM("v1", "j", 1, 1024)
	warm.AddVM(v)
	mustRun(t, warm, "v1", "n04")
	o := Optimizer{WarmStart: warm}
	c, err := o.compile(p, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	if seed := o.warmSeed(p, c, new(scratch)); seed != nil {
		t.Fatalf("warm seed accepted a vanished host: %+v", seed)
	}
}

func TestSolveWithWarmStartNoWorseAndConsistent(t *testing.T) {
	p, warm := warmProblem(t)
	cold, err := Optimizer{Workers: 1}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := Optimizer{Workers: 1, WarmStart: warm}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !warmRes.Dst.Viable() {
		t.Fatal("warm-started solve produced non-viable destination")
	}
	// Both prove optimality on this tiny instance: identical costs.
	if cold.Optimal && warmRes.Optimal && warmRes.Cost != cold.Cost {
		t.Fatalf("warm cost %d != cold cost %d", warmRes.Cost, cold.Cost)
	}
}

// TestWarmStartHintsFlowIntoModel: the model buildModel hands out
// tries each runner's warm host first, so its first solution, searched
// with no seed to cut it, is the warm assignment and not the current
// one.
func TestWarmStartHintsFlowIntoModel(t *testing.T) {
	p, warm := warmProblem(t)
	o := Optimizer{Workers: 1, WarmStart: warm}
	c, err := o.compile(p, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	m, err := buildModel(p, c, new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	opts := m.opts
	opts.OnSolution = func(sol cp.Solution) int {
		for i := range c.runners {
			first = append(first, c.nodes[sol.Value(i)].Name)
		}
		return -1 // no second dive
	}
	if _, err := m.s.Minimize(m.obj, opts); err != nil {
		t.Fatal(err)
	}
	for i, g := range c.runners {
		if want := warm.HostOf(g.vm.Name); first[i] != want {
			t.Fatalf("first solution puts %s on %s, want its warm host %s (all: %v)", g.vm.Name, first[i], want, first)
		}
	}
}
