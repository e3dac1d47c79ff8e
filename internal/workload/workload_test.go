package workload

import (
	"math/rand"
	"testing"

	"cwcs/internal/duration"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

func TestNewSpecShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSpec("j1", ED, A, 9, 0, rng)
	if len(s.Job.VMs) != 9 || len(s.Phases) != 9 {
		t.Fatalf("VMs = %d, phases = %d", len(s.Job.VMs), len(s.Phases))
	}
	for _, v := range s.Job.VMs {
		if v.VJob != "j1" {
			t.Fatal("VM not stamped")
		}
		okMem := false
		for _, m := range MemorySizes {
			if v.MemoryDemand() == m {
				okMem = true
			}
		}
		if !okMem {
			t.Fatalf("memory %d not in paper sizes", v.MemoryDemand())
		}
	}
	if s.TotalWork() <= 0 {
		t.Fatal("no work generated")
	}
}

func TestSpecDeterministicWithSeed(t *testing.T) {
	a := NewSpec("j", VP, B, 9, 0, rand.New(rand.NewSource(7)))
	b := NewSpec("j", VP, B, 9, 0, rand.New(rand.NewSource(7)))
	if a.TotalWork() != b.TotalWork() {
		t.Fatal("same seed, different workload")
	}
	for i := range a.Job.VMs {
		if a.Job.VMs[i].MemoryDemand() != b.Job.VMs[i].MemoryDemand() {
			t.Fatal("same seed, different memory")
		}
	}
}

func TestBenchmarkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Every workload opens with the zero-CPU staging phase.
	// ED: staging then a single compute phase per VM.
	ed := NewSpec("ed", ED, W, 4, 0, rng)
	for _, ph := range ed.Phases {
		if len(ph) != 2 || ph[0].CPU != 0 || ph[1].CPU != 1 {
			t.Fatalf("ED phases = %+v", ph)
		}
	}
	// HC: middle VMs stage, idle, compute, idle.
	hc := NewSpec("hc", HC, W, 4, 0, rng)
	mid := hc.Phases["hc-vm01"]
	if len(mid) != 4 || mid[0].CPU != 0 || mid[1].CPU != 0 || mid[2].CPU != 1 || mid[3].CPU != 0 {
		t.Fatalf("HC middle phases = %+v", mid)
	}
	first := hc.Phases["hc-vm00"]
	if first[0].CPU != 0 || first[1].CPU != 1 {
		t.Fatalf("HC first VM should compute right after staging: %+v", first)
	}
	// VP: staging then alternating compute/exchange.
	vp := NewSpec("vp", VP, W, 4, 0, rng)
	for _, ph := range vp.Phases {
		if len(ph) != 7 {
			t.Fatalf("VP phases = %+v", ph)
		}
		for i, p := range ph[1:] {
			wantCPU := 1 - i%2
			if p.CPU != wantCPU {
				t.Fatalf("VP phase %d CPU = %d", i+1, p.CPU)
			}
		}
	}
	// MB: staging then 1-5 task phases, the first computing.
	mb := NewSpec("mb", MB, W, 4, 0, rng)
	for _, ph := range mb.Phases {
		if len(ph) < 2 || len(ph) > 6 || ph[0].CPU != 0 || ph[1].CPU != 1 {
			t.Fatalf("MB phases = %+v", ph)
		}
	}
}

func TestClassOrdering(t *testing.T) {
	if !(W.baseSeconds() < A.baseSeconds() && A.baseSeconds() < B.baseSeconds()) {
		t.Fatal("class sizes not increasing")
	}
	if W.String() != "W" || A.String() != "A" || B.String() != "B" {
		t.Fatal("class names")
	}
	for _, b := range Benchmarks {
		if b.String() == "??" {
			t.Fatal("benchmark name")
		}
	}
	if Benchmark(99).String() != "??" {
		t.Fatal("unknown benchmark name")
	}
}

// paperOptions returns the paper's §5.1 generator parameters.
func paperOptions(vms int) GenerateOptions {
	return GenerateOptions{Nodes: 200, NodeCPU: 2, NodeMemory: 4096, VMs: vms}
}

func TestInstall(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 2, 8192))
	c := sim.New(cfg, duration.Default())
	s := NewSpec("j", ED, W, 2, 0, rand.New(rand.NewSource(4)))
	s.Install(cfg, c)
	for _, v := range s.Job.VMs {
		if cfg.VM(v.Name) == nil {
			t.Fatalf("%s not installed", v.Name)
		}
		if cfg.StateOf(v.Name) != vjob.Waiting {
			t.Fatal("installed VM not waiting")
		}
	}
	// Run one VM to completion to prove phases registered.
	if err := cfg.SetRunning(s.Job.VMs[0].Name, "n0"); err != nil {
		t.Fatal(err)
	}
	c.Run(10_000)
	if !c.WorkloadDone(s.Job.VMs[0].Name) {
		t.Fatal("workload did not run")
	}
}

func TestGenerateConfiguration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := GenerateConfiguration(rng, paperOptions(108))
	if g.Cfg.NumNodes() != 200 {
		t.Fatalf("nodes = %d", g.Cfg.NumNodes())
	}
	if g.Cfg.NumVMs() != 108 {
		t.Fatalf("VMs = %d, want 108", g.Cfg.NumVMs())
	}
	// Memory viability is guaranteed; CPU may be over-committed.
	for _, v := range g.Cfg.Violations() {
		if v.Resource == "memory" {
			t.Fatalf("memory violation: %v", v)
		}
	}
	if len(g.Jobs) == 0 || len(g.Jobs) != len(g.Specs) {
		t.Fatalf("jobs/specs = %d/%d", len(g.Jobs), len(g.Specs))
	}
	// All three states should appear across a sample this size.
	states := map[vjob.State]bool{}
	for _, j := range g.Jobs {
		states[g.Cfg.VJobState(j)] = true
	}
	if len(states) < 2 {
		t.Fatalf("state mix too uniform: %v", states)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateConfiguration(rand.New(rand.NewSource(9)), paperOptions(54))
	b := GenerateConfiguration(rand.New(rand.NewSource(9)), paperOptions(54))
	if !a.Cfg.Equal(b.Cfg) {
		t.Fatal("same seed produced different configurations")
	}
}

func TestGenerateSmallCluster(t *testing.T) {
	// A tiny cluster cannot host everything: generation must still
	// terminate with some vjobs waiting.
	g := GenerateConfiguration(rand.New(rand.NewSource(11)), GenerateOptions{
		Nodes: 2, NodeCPU: 2, NodeMemory: 2048, VMs: 54,
	})
	if g.Cfg.NumVMs() != 54 {
		t.Fatalf("VMs = %d", g.Cfg.NumVMs())
	}
	for _, v := range g.Cfg.Violations() {
		if v.Resource == "memory" {
			t.Fatalf("memory violation: %v", v)
		}
	}
}
