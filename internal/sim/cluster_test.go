package sim

import (
	"fmt"
	"math"
	"testing"

	"cwcs/internal/duration"
	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

func newSim(t *testing.T, nodes, cpu, mem int) *Cluster {
	t.Helper()
	cfg := vjob.NewConfiguration()
	for i := 0; i < nodes; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("n%02d", i), cpu, mem))
	}
	c := New(cfg, duration.Default())
	// Every simulation in this suite runs under the invariant watcher:
	// no event may push a node past its capacities beyond what the
	// test's initial placement already over-committed.
	w := WatchInvariants(c)
	t.Cleanup(func() {
		if err := w.Err(); err != nil {
			t.Errorf("invariants violated: %v", err)
		}
	})
	return c
}

func addRunning(t *testing.T, c *Cluster, name, node string, cpu, mem int) *vjob.VM {
	t.Helper()
	v := vjob.NewVM(name, "j", cpu, mem)
	c.Config().AddVM(v)
	if err := c.Config().SetRunning(name, node); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEventOrdering(t *testing.T) {
	c := newSim(t, 1, 2, 4096)
	var order []int
	c.Schedule(10, func() { order = append(order, 2) })
	c.Schedule(5, func() { order = append(order, 1) })
	c.Schedule(10, func() { order = append(order, 3) }) // same time: FIFO
	c.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if c.Now() != 10 {
		t.Fatalf("clock = %v, want 10 (quiescent after last event)", c.Now())
	}
}

func TestSchedulePastClamped(t *testing.T) {
	c := newSim(t, 1, 2, 4096)
	c.Schedule(50, func() {})
	c.Run(60)
	fired := false
	c.Schedule(10, func() { fired = true }) // in the past: clamps to now
	c.Run(100)
	if !fired {
		t.Fatal("past event never fired")
	}
}

func TestWorkloadProgressAtFullSpeed(t *testing.T) {
	c := newSim(t, 1, 2, 4096)
	addRunning(t, c, "vm1", "n00", 1, 1024)
	c.SetWorkload("vm1", []Phase{{CPU: 1, Seconds: 100}})
	c.Run(50)
	if got := c.RemainingWork("vm1"); math.Abs(got-50) > 1e-6 {
		t.Fatalf("remaining = %v, want 50", got)
	}
	c.Run(200)
	if !c.WorkloadDone("vm1") {
		t.Fatal("workload not done after enough time")
	}
	if got := c.Config().VM("vm1").CPUDemand(); got != 0 {
		t.Fatalf("finished VM still demands %d CPU", got)
	}
}

func TestCPUSharingOnOverloadedNode(t *testing.T) {
	// Two busy VMs on a 1-CPU node progress at half speed.
	c := newSim(t, 1, 1, 8192)
	addRunning(t, c, "a", "n00", 1, 1024)
	addRunning(t, c, "b", "n00", 1, 1024)
	c.SetWorkload("a", []Phase{{CPU: 1, Seconds: 100}})
	c.SetWorkload("b", []Phase{{CPU: 1, Seconds: 100}})
	c.Run(100)
	if got := c.RemainingWork("a"); math.Abs(got-50) > 1e-6 {
		t.Fatalf("remaining = %v, want 50 (half speed)", got)
	}
}

func TestCommunicationPhaseElapsesWithoutCPU(t *testing.T) {
	c := newSim(t, 1, 1, 8192)
	addRunning(t, c, "a", "n00", 1, 1024)
	addRunning(t, c, "b", "n00", 1, 1024)
	// a computes, b is in a communication phase: both progress fully.
	c.SetWorkload("a", []Phase{{CPU: 1, Seconds: 100}})
	c.SetWorkload("b", []Phase{{CPU: 0, Seconds: 100}})
	c.Run(100)
	if got := c.RemainingWork("a"); got > 1e-6 {
		t.Fatalf("a not at full speed: remaining %v", got)
	}
	if !c.WorkloadDone("b") {
		t.Fatal("communication phase should elapse")
	}
}

func TestPhaseTransitionsUpdateDemand(t *testing.T) {
	c := newSim(t, 1, 2, 4096)
	addRunning(t, c, "vm1", "n00", 1, 1024)
	c.SetWorkload("vm1", []Phase{
		{CPU: 1, Seconds: 10},
		{CPU: 0, Seconds: 5},
		{CPU: 1, Seconds: 10},
	})
	c.Run(12)
	if got := c.Config().VM("vm1").CPUDemand(); got != 0 {
		t.Fatalf("demand during communication phase = %d, want 0", got)
	}
	c.Run(16)
	if got := c.Config().VM("vm1").CPUDemand(); got != 1 {
		t.Fatalf("demand in third phase = %d, want 1", got)
	}
	c.Run(100)
	if !c.WorkloadDone("vm1") {
		t.Fatal("phased workload never completed")
	}
}

func TestMigrationMovesVMAfterDuration(t *testing.T) {
	c := newSim(t, 2, 2, 4096)
	vm := addRunning(t, c, "vm1", "n00", 1, 1024)
	var doneAt float64 = -1
	c.StartAction(&plan.Migration{Machine: vm, Src: "n00", Dst: "n01"}, func(err error) {
		if err != nil {
			t.Errorf("migration failed: %v", err)
		}
		doneAt = c.Now()
	})
	c.Run(1000)
	want := duration.Default().Migrate(1024).Seconds()
	if math.Abs(doneAt-want) > 1e-6 {
		t.Fatalf("migration completed at %v, want %v", doneAt, want)
	}
	if c.Config().HostOf("vm1") != "n01" {
		t.Fatal("VM not moved")
	}
}

func TestSuspendFreezesWorkload(t *testing.T) {
	c := newSim(t, 1, 2, 4096)
	vm := addRunning(t, c, "vm1", "n00", 1, 1024)
	c.SetWorkload("vm1", []Phase{{CPU: 1, Seconds: 1000}})
	c.Run(10) // 10s of progress
	c.StartAction(&plan.Suspend{Machine: vm, On: "n00", To: "n00"}, nil)
	c.Run(500)
	if got := c.RemainingWork("vm1"); math.Abs(got-990) > 1e-6 {
		t.Fatalf("suspended VM progressed: remaining %v, want 990", got)
	}
	if c.Config().StateOf("vm1") != vjob.Sleeping {
		t.Fatal("VM not sleeping")
	}
	// Resume locally: workload continues.
	c.StartAction(&plan.Resume{Machine: vm, From: "n00", On: "n00"}, nil)
	c.Run(c.Now() + 2000)
	if !c.WorkloadDone("vm1") {
		t.Fatalf("resumed VM never finished (remaining %v)", c.RemainingWork("vm1"))
	}
}

func TestDecelerationDuringOperation(t *testing.T) {
	// A busy VM co-hosted with a local suspend runs at 1/1.3 speed
	// while the suspend is in flight.
	c := newSim(t, 1, 2, 8192)
	busy := addRunning(t, c, "busy", "n00", 1, 1024)
	victim := addRunning(t, c, "victim", "n00", 1, 2048)
	_ = busy
	c.SetWorkload("busy", []Phase{{CPU: 1, Seconds: 10000}})
	c.StartAction(&plan.Suspend{Machine: victim, On: "n00", To: "n00"}, nil)
	opSecs := duration.Default().Suspend(2048, duration.Local).Seconds()
	c.Run(opSecs)
	progressed := 10000 - c.RemainingWork("busy")
	want := opSecs / 1.3
	if math.Abs(progressed-want) > 1e-6 {
		t.Fatalf("progress under deceleration = %v, want %v", progressed, want)
	}
	// After the operation the busy VM runs at full speed again.
	c.Run(opSecs + 100)
	progressed2 := 10000 - c.RemainingWork("busy") - progressed
	if math.Abs(progressed2-100) > 1e-6 {
		t.Fatalf("post-op progress = %v, want 100", progressed2)
	}
}

func TestRemoteOperationDeceleratesMore(t *testing.T) {
	c := newSim(t, 2, 2, 8192)
	addRunning(t, c, "busy", "n00", 1, 1024)
	victim := addRunning(t, c, "victim", "n00", 1, 1024)
	c.SetWorkload("busy", []Phase{{CPU: 1, Seconds: 10000}})
	// Remote suspend: image pushed to n01.
	c.StartAction(&plan.Suspend{Machine: victim, On: "n00", To: "n01"}, nil)
	opSecs := duration.Default().Suspend(1024, duration.SCP).Seconds()
	c.Run(opSecs)
	progressed := 10000 - c.RemainingWork("busy")
	want := opSecs / 1.5
	if math.Abs(progressed-want) > 1e-6 {
		t.Fatalf("progress under remote deceleration = %v, want %v", progressed, want)
	}
	local, remote := c.TransferCounts()
	if local != 0 || remote != 1 {
		t.Fatalf("transfer counts = %d local, %d remote", local, remote)
	}
}

func TestConcurrentOpsUseMaxDeceleration(t *testing.T) {
	// A local suspend (1.3x) and a remote suspend (1.5x) overlap on
	// the same node: the busy VM suffers the stronger factor while
	// both are in flight.
	c := newSim(t, 2, 3, 8192)
	addRunning(t, c, "busy", "n00", 1, 512)
	v1 := addRunning(t, c, "v1", "n00", 1, 1024)
	v2 := addRunning(t, c, "v2", "n00", 1, 1024)
	c.SetWorkload("busy", []Phase{{CPU: 1, Seconds: 10000}})
	c.StartAction(&plan.Suspend{Machine: v1, On: "n00", To: "n00"}, nil) // local
	c.StartAction(&plan.Suspend{Machine: v2, On: "n00", To: "n01"}, nil) // remote
	localSecs := duration.Default().Suspend(1024, duration.Local).Seconds()
	remoteSecs := duration.Default().Suspend(1024, duration.SCP).Seconds()
	c.Run(localSecs)
	// While both run, the remote factor (1.5) dominates.
	progressed := 10000 - c.RemainingWork("busy")
	if math.Abs(progressed-localSecs/1.5) > 1e-6 {
		t.Fatalf("progress = %v, want %v (1.5x)", progressed, localSecs/1.5)
	}
	// After the local suspend ends, only the remote one decelerates.
	c.Run(remoteSecs)
	progressed2 := 10000 - c.RemainingWork("busy") - progressed
	want := (remoteSecs - localSecs) / 1.5
	if math.Abs(progressed2-want) > 1e-6 {
		t.Fatalf("tail progress = %v, want %v", progressed2, want)
	}
}

func TestRunAndStopLifecycle(t *testing.T) {
	c := newSim(t, 1, 2, 4096)
	v := vjob.NewVM("vm1", "j", 1, 1024)
	c.Config().AddVM(v)
	c.SetWorkload("vm1", []Phase{{CPU: 1, Seconds: 30}})
	c.StartAction(&plan.Run{Machine: v, On: "n00"}, nil)
	// Workload starts only after boot (6 s).
	c.Run(6 + 30 + 1)
	if !c.WorkloadDone("vm1") {
		t.Fatalf("workload not finished; remaining %v", c.RemainingWork("vm1"))
	}
	c.StartAction(&plan.Stop{Machine: v, On: "n00"}, nil)
	c.Run(c.Now() + 100)
	if c.Config().VM("vm1") != nil {
		t.Fatal("VM still present after stop")
	}
	counts := c.ActionCounts()
	if counts["run"] != 1 || counts["stop"] != 1 {
		t.Fatalf("action counts = %v", counts)
	}
}

func TestActionErrorReported(t *testing.T) {
	c := newSim(t, 2, 2, 4096)
	vm := addRunning(t, c, "vm1", "n00", 1, 1024)
	var got error
	// Wrong source host: Apply must fail and be reported.
	c.StartAction(&plan.Migration{Machine: vm, Src: "n01", Dst: "n00"}, func(err error) { got = err })
	c.Run(1000)
	if got == nil {
		t.Fatal("invalid action reported no error")
	}
}

func TestSnapshotIsolatedFromLiveConfig(t *testing.T) {
	c := newSim(t, 2, 2, 4096)
	vm := addRunning(t, c, "vm1", "n00", 1, 1024)
	snap := c.Snapshot()
	c.StartAction(&plan.Migration{Machine: vm, Src: "n00", Dst: "n01"}, nil)
	c.Run(1000)
	if snap.HostOf("vm1") != "n00" {
		t.Fatal("snapshot mutated by live migration")
	}
}

func TestVJobDone(t *testing.T) {
	c := newSim(t, 1, 2, 4096)
	j := vjob.NewVJob("j", 0, vjob.NewVM("a", "", 1, 512), vjob.NewVM("b", "", 1, 512))
	for _, v := range j.VMs {
		c.Config().AddVM(v)
		if err := c.Config().SetRunning(v.Name, "n00"); err != nil {
			t.Fatal(err)
		}
	}
	c.SetWorkload("a", []Phase{{CPU: 1, Seconds: 10}})
	c.SetWorkload("b", []Phase{{CPU: 1, Seconds: 20}})
	c.Run(15)
	if c.VJobDone(j) {
		t.Fatal("vjob done while b still works")
	}
	c.Run(50)
	if !c.VJobDone(j) {
		t.Fatal("vjob not done")
	}
	if c.VJobDone(vjob.NewVJob("empty", 0)) {
		t.Fatal("empty vjob reported done")
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}
