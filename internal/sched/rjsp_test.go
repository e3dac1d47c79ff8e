package sched

import (
	"fmt"
	"testing"

	"cwcs/internal/vjob"
)

func mkCluster(nodes, cpu, mem int) *vjob.Configuration {
	c := vjob.NewConfiguration()
	for i := 0; i < nodes; i++ {
		c.AddNode(vjob.NewNode(fmt.Sprintf("n%02d", i), cpu, mem))
	}
	return c
}

// figure6 builds the paper's Figure 6 scenario: 3 uniprocessor nodes;
// vjob1 (running) uses 2 busy VMs, vjob2 (running) needs 2 busy VMs,
// vjob3 (waiting) needs 1 busy VM. Each computing VM needs a full CPU.
// Demands have grown so vjob1+vjob2 no longer fit together.
func figure6(t *testing.T) (*vjob.Configuration, []*vjob.VJob) {
	t.Helper()
	c := mkCluster(3, 1, 4096)
	j1 := vjob.NewVJob("vjob1", 1,
		vjob.NewVM("vjob1-1", "", 1, 1024),
		vjob.NewVM("vjob1-2", "", 1, 1024))
	j2 := vjob.NewVJob("vjob2", 2,
		vjob.NewVM("vjob2-1", "", 1, 1024),
		vjob.NewVM("vjob2-2", "", 1, 1024))
	j3 := vjob.NewVJob("vjob3", 3,
		vjob.NewVM("vjob3-1", "", 1, 1024))
	for _, j := range []*vjob.VJob{j1, j2, j3} {
		for _, v := range j.VMs {
			c.AddVM(v)
		}
	}
	// vjob1 and vjob2 are running (overloaded now that all VMs compute).
	if err := c.SetRunning("vjob1-1", "n00"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRunning("vjob1-2", "n01"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRunning("vjob2-1", "n02"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRunning("vjob2-2", "n02"); err != nil {
		t.Fatal(err)
	}
	return c, []*vjob.VJob{j1, j2, j3}
}

// TestRJSPFigure6: vjob1 and vjob3 run, vjob2 is suspended — exactly
// the paper's walkthrough.
func TestRJSPFigure6(t *testing.T) {
	c, queue := figure6(t)
	target := Consolidation{}.Decide(c, queue)
	if target["vjob1"] != vjob.Running {
		t.Fatalf("vjob1 -> %v, want running", target["vjob1"])
	}
	if target["vjob2"] != vjob.Sleeping {
		t.Fatalf("vjob2 -> %v, want sleeping", target["vjob2"])
	}
	if target["vjob3"] != vjob.Running {
		t.Fatalf("vjob3 -> %v, want running", target["vjob3"])
	}
}

// TestRJSPRespectsQueueOrder: with room for only one vjob, the highest
// priority (lowest number) wins.
func TestRJSPRespectsQueueOrder(t *testing.T) {
	c := mkCluster(1, 1, 4096)
	j1 := vjob.NewVJob("a", 2, vjob.NewVM("a-1", "", 1, 1024))
	j2 := vjob.NewVJob("b", 1, vjob.NewVM("b-1", "", 1, 1024))
	for _, j := range []*vjob.VJob{j1, j2} {
		for _, v := range j.VMs {
			c.AddVM(v)
		}
	}
	target := Consolidation{}.Decide(c, []*vjob.VJob{j1, j2})
	if target["b"] != vjob.Running || target["a"] != vjob.Waiting {
		t.Fatalf("target = %v", target)
	}
}

// TestRJSPResumesSleepingWhenRoomFrees: a sleeping vjob is selected to
// run once resources allow.
func TestRJSPResumesSleepingWhenRoomFrees(t *testing.T) {
	c := mkCluster(2, 1, 4096)
	j := vjob.NewVJob("s", 1, vjob.NewVM("s-1", "", 1, 1024))
	c.AddVM(j.VMs[0])
	if err := c.SetSleeping("s-1", "n00"); err != nil {
		t.Fatal(err)
	}
	target := Consolidation{}.Decide(c, []*vjob.VJob{j})
	if target["s"] != vjob.Running {
		t.Fatalf("sleeping vjob -> %v, want running", target["s"])
	}
}

// TestRJSPSkipsTerminated: a vjob with no VMs left gets no target.
func TestRJSPSkipsTerminated(t *testing.T) {
	c := mkCluster(1, 1, 4096)
	j := vjob.NewVJob("gone", 1, vjob.NewVM("gone-1", "", 1, 512))
	// VM never added to the configuration: terminated.
	target := Consolidation{}.Decide(c, []*vjob.VJob{j})
	if _, ok := target["gone"]; ok {
		t.Fatal("terminated vjob received a target state")
	}
}

// TestStaticFCFSNeverPreempts: running vjobs stay running even when a
// higher-priority vjob waits.
func TestStaticFCFSNeverPreempts(t *testing.T) {
	c := mkCluster(1, 1, 4096)
	lo := vjob.NewVJob("lo", 2, vjob.NewVM("lo-1", "", 1, 1024))
	hi := vjob.NewVJob("hi", 1, vjob.NewVM("hi-1", "", 1, 1024))
	c.AddVM(lo.VMs[0])
	c.AddVM(hi.VMs[0])
	if err := c.SetRunning("lo-1", "n00"); err != nil {
		t.Fatal(err)
	}
	target := StaticFCFS{}.Decide(c, []*vjob.VJob{hi, lo})
	if target["lo"] != vjob.Running {
		t.Fatal("static FCFS preempted a running vjob")
	}
	if target["hi"] != vjob.Waiting {
		t.Fatal("hi should wait")
	}
}

// TestStaticFCFSHeadBlocks: a blocked head stops all later vjobs,
// even ones that would fit. The head is blocked by its booking: idle
// VMs still reserve one processing unit each.
func TestStaticFCFSHeadBlocks(t *testing.T) {
	c := mkCluster(2, 1, 4096)
	blockerVMs := []*vjob.VM{
		vjob.NewVM("big-1", "", 0, 1024),
		vjob.NewVM("big-2", "", 0, 1024),
		vjob.NewVM("big-3", "", 0, 1024),
	}
	big := vjob.NewVJob("big", 1, blockerVMs...) // books 3 CPUs, cluster has 2
	small := vjob.NewVJob("small", 2, vjob.NewVM("small-1", "", 1, 1024))
	for _, v := range big.VMs {
		c.AddVM(v)
	}
	c.AddVM(small.VMs[0])

	target := StaticFCFS{}.Decide(c, []*vjob.VJob{big, small})
	if target["big"] != vjob.Waiting {
		t.Fatalf("idle VMs booked no CPU: %v", target)
	}
	if target["small"] != vjob.Waiting {
		t.Fatalf("strict FCFS let small jump: %v", target)
	}
}

func TestSortQueueOrdering(t *testing.T) {
	a := &vjob.VJob{Name: "a", Priority: 2}
	b := &vjob.VJob{Name: "b", Priority: 1, Submitted: 5}
	c := &vjob.VJob{Name: "c", Priority: 1, Submitted: 3}
	d := &vjob.VJob{Name: "d", Priority: 1, Submitted: 3}
	got := SortQueue(nil, []*vjob.VJob{a, b, c, d})
	want := []string{"c", "d", "b", "a"}
	for i, w := range want {
		if got[i].Name != w {
			t.Fatalf("order = %v", got)
		}
	}
}
