package monitor

import (
	"fmt"
	"testing"

	"cwcs/internal/duration"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

func testCluster(t *testing.T) *sim.Cluster {
	t.Helper()
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n00", 2, 4096))
	cfg.AddNode(vjob.NewNode("n01", 2, 4096))
	return sim.New(cfg, duration.Default())
}

func TestObserve(t *testing.T) {
	c := testCluster(t)
	cfg := c.Config()
	cfg.AddVM(vjob.NewVM("a", "j", 1, 1024))
	cfg.AddVM(vjob.NewVM("b", "j", 1, 2048))
	cfg.AddVM(vjob.NewVM("c", "j", 1, 512))
	if err := cfg.SetRunning("a", "n00"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetRunning("b", "n01"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetSleeping("c", "n00"); err != nil {
		t.Fatal(err)
	}
	s := Observe(42, cfg)
	if s.T != 42 {
		t.Fatalf("T = %v", s.T)
	}
	if s.UsedCPU != 2 || s.CapCPU != 4 {
		t.Fatalf("cpu = %d/%d", s.UsedCPU, s.CapCPU)
	}
	if s.UsedMem != 3072 || s.CapMem != 8192 {
		t.Fatalf("mem = %d/%d", s.UsedMem, s.CapMem)
	}
	if s.CPUPercent() != 50 {
		t.Fatalf("cpu%% = %v", s.CPUPercent())
	}
	if s.MemGiB() != 3 {
		t.Fatalf("memGiB = %v", s.MemGiB())
	}
	if s.Running != 2 || s.Sleeping != 1 || s.Waiting != 0 {
		t.Fatalf("states = %d/%d/%d", s.Running, s.Sleeping, s.Waiting)
	}
}

func TestZeroCapacity(t *testing.T) {
	s := Observe(0, vjob.NewConfiguration())
	if s.CPUPercent() != 0 {
		t.Fatal("division by zero capacity")
	}
}

func TestRecorderSamplesPeriodically(t *testing.T) {
	c := testCluster(t)
	cfg := c.Config()
	cfg.AddVM(vjob.NewVM("a", "j", 1, 1024))
	if err := cfg.SetRunning("a", "n00"); err != nil {
		t.Fatal(err)
	}
	c.SetWorkload("a", []sim.Phase{{CPU: 1, Seconds: 35}})
	r := &Recorder{}
	r.Attach(c)
	c.Run(45)
	// Samples at t=0,10,20,30,40.
	if len(r.Samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(r.Samples))
	}
	// After the workload finishes at t=35, demand drops to zero.
	if r.Samples[3].UsedCPU != 1 {
		t.Fatalf("t=30 cpu = %d, want 1", r.Samples[3].UsedCPU)
	}
	if r.Samples[4].UsedCPU != 0 {
		t.Fatalf("t=40 cpu = %d, want 0 (workload done)", r.Samples[4].UsedCPU)
	}
	r.Stop()
	c.Run(100)
	if len(r.Samples) != 5 {
		t.Fatal("recorder kept sampling after Stop")
	}
}

// TestRecorderDefaultInterval: the Recorder samples every 10 virtual
// seconds, the paper's monitoring refresh.
func TestRecorderDefaultInterval(t *testing.T) {
	c := testCluster(t)
	r := &Recorder{}
	r.Attach(c)
	c.Run(25)
	r.Stop()
	var at []float64
	for _, s := range r.Samples {
		at = append(at, s.T)
	}
	if fmt.Sprint(at) != "[0 10 20]" {
		t.Fatalf("sample times = %v, want [0 10 20]", at)
	}
}
