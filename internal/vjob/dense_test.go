package vjob

import (
	"fmt"
	"sync"
	"testing"
)

// refVJobState is VJobState as it was before it counted into a fixed
// array: one map of counts per call.
func refVJobState(c *Configuration, j *VJob) State {
	if len(j.VMs) == 0 {
		return Terminated
	}
	counts := map[State]int{}
	present := 0
	for _, v := range j.VMs {
		if c.VM(v.Name) == nil {
			continue
		}
		present++
		counts[c.StateOf(v.Name)]++
	}
	switch {
	case present == 0:
		return Terminated
	case counts[Running] == present:
		return Running
	case counts[Sleeping] == present:
		return Sleeping
	case counts[Waiting] == present:
		return Waiting
	case counts[Running] > 0:
		return Running
	case counts[Sleeping] > 0:
		return Sleeping
	default:
		return Waiting
	}
}

// TestVJobStateMixed: over vjobs whose VMs disagree (r running, s
// sleeping, w waiting, x removed from the configuration), VJobState
// answers the table, and the map-counting rule it replaced answers the
// same.
func TestVJobStateMixed(t *testing.T) {
	for _, tc := range []struct {
		states string
		want   State
	}{
		{"", Terminated},
		{"x", Terminated},
		{"xx", Terminated},
		{"r", Running},
		{"rr", Running},
		{"ss", Sleeping},
		{"ww", Waiting},
		{"rs", Running},
		{"sr", Running},
		{"rw", Running},
		{"sw", Sleeping},
		{"ws", Sleeping},
		{"rsw", Running},
		{"wsr", Running},
		{"rx", Running},
		{"xs", Sleeping},
		{"xw", Waiting},
		{"swx", Sleeping},
		{"wwwx", Waiting},
		{"xxsw", Sleeping},
	} {
		c := newTestConfig()
		j := NewVJob("j", 0)
		for i, st := range tc.states {
			v := NewVM(fmt.Sprintf("v%d", i), "j", 0, 0)
			j.VMs = append(j.VMs, v)
			if st == 'x' {
				continue
			}
			c.AddVM(v)
			switch st {
			case 'r':
				mustRun(t, c, v.Name, "n1")
			case 's':
				if err := c.SetSleeping(v.Name, "n2"); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := c.VJobState(j); got != tc.want {
			t.Errorf("%q: VJobState = %v, want %v", tc.states, got, tc.want)
		}
		if ref := refVJobState(c, j); ref != tc.want {
			t.Errorf("%q: the map rule says %v, the table %v", tc.states, ref, tc.want)
		}
	}
}

// denseConfig returns a configuration of nodes nodes and vms VMs, two
// of every three running and the rest sleeping, round robin.
func denseConfig(nodes, vms int) *Configuration {
	c := NewConfiguration()
	for i := range nodes {
		c.AddNode(NewNode(fmt.Sprintf("n%03d", i), 8, 32768))
	}
	for i := range vms {
		v := NewVM(fmt.Sprintf("v%03d", i), "j", 1, 512)
		c.AddVM(v)
		node := fmt.Sprintf("n%03d", i%nodes)
		if i%3 == 2 {
			_ = c.SetSleeping(v.Name, node)
		} else {
			_ = c.SetRunning(v.Name, node)
		}
	}
	return c
}

// TestDenseAllocations pins what the dense representation costs on a
// 100-node, 150-VM configuration: Clone makes the clone and its two
// flat slices, and the per-node queries allocate nothing. A map-based
// configuration would fail both.
func TestDenseAllocations(t *testing.T) {
	c := denseConfig(100, 150)
	var sink *Configuration
	if n := testing.AllocsPerRun(100, func() { sink = c.Clone() }); n > 3 {
		t.Errorf("Clone: %.0f allocations, want at most 3", n)
	}
	_ = sink
	dst := make([]*VM, 0, 8)
	for _, q := range []struct {
		name string
		run  func()
	}{
		{"Used", func() { _ = c.Used("n042") }},
		{"Free", func() { _ = c.Free("n042") }},
		{"AppendRunningOn", func() { dst = c.AppendRunningOn(dst[:0], "n042") }},
	} {
		if n := testing.AllocsPerRun(100, q.run); n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", q.name, n)
		}
	}
	if fmt.Sprint(dst) != fmt.Sprint([]*VM{c.VM("v042"), c.VM("v142")}) {
		t.Fatalf("AppendRunningOn(n042) = %v, want v042 and v142", dst)
	}
}

// TestSlotStorageBounded: a configuration that lives long, cloned
// between every change as the simulator's is by each snapshot, while
// VMs come and go, keeps its slot and head storage bounded by what it
// ever held at once.
func TestSlotStorageBounded(t *testing.T) {
	c := NewConfiguration()
	for i := range 4 {
		c.AddNode(NewNode(fmt.Sprintf("n%d", i), 4, 4096))
	}
	for round := range 500 {
		snap := c.Clone()
		name := fmt.Sprintf("v%d", round)
		c.AddVM(NewVM(name, "j", 1, 256))
		mustRun(t, c, name, fmt.Sprintf("n%d", round%4))
		if round >= 8 {
			c.RemoveVM(fmt.Sprintf("v%d", round-8))
		}
		if round%50 == 49 { // a node goes offline and comes back
			n := c.Node("n3")
			for _, v := range c.RunningOn("n3") {
				mustRun(t, c, v.Name, "n0")
			}
			if err := c.RemoveNode("n3"); err != nil {
				t.Fatal(err)
			}
			_ = c.Clone()
			c.AddNode(n)
		}
		if snap.NumVMs() != min(round, 8) {
			t.Fatalf("round %d: the snapshot holds %d VMs", round, snap.NumVMs())
		}
	}
	checkIndex(t, c)
	if c.NumVMs() != 8 || len(c.slots) > 10 || len(c.heads) > 4 {
		t.Fatalf("%d VMs on %d slots, %d nodes on %d heads", c.NumVMs(), len(c.slots), c.NumNodes(), len(c.heads))
	}
}

// TestSnapshotIndependence runs under -race in CI. A clone is read
// from other goroutines — every per-node query, node by node — while
// its source takes AddVM, RemoveVM, SetRunning and RemoveNode, and two
// goroutines clone the source's own snapshot at once. Demand is still
// shared through *VM, so nothing here writes it. At the end the clone
// must answer as the reference scan of what it held when taken, and
// the source as the reference that took every change.
func TestSnapshotIndependence(t *testing.T) {
	c := denseConfig(20, 40)
	snap := c.Clone()
	want := scanOf(snap)
	ref := scanOf(c)

	var wg sync.WaitGroup
	read := func(cfg *Configuration) {
		defer wg.Done()
		for range 20 {
			var dst []*VM
			for _, n := range cfg.Nodes() {
				_ = cfg.Used(n.Name)
				_ = cfg.Free(n.Name)
				dst = cfg.AppendRunningOn(dst[:0], n.Name)
				_ = cfg.SleepingOn(n.Name)
			}
			_ = cfg.Violations()
			_ = cfg.InState(Waiting)
			_ = cfg.AppendDangling(nil)
		}
	}
	clones := make([]*Configuration, 2)
	wg.Add(4)
	go read(snap)
	go read(snap)
	for i := range clones {
		go func() {
			defer wg.Done()
			clones[i] = snap.Clone()
		}()
	}

	// Removals first, while the source still shares its index with the
	// snapshot: they only mark ids absent.
	for _, vm := range []string{"v019", "v039"} {
		c.RemoveVM(vm)
		ref.removeVM(vm)
	}
	if err, refErr := c.RemoveNode("n019"), ref.removeNode("n019"); err != nil || refErr != nil {
		t.Fatalf("RemoveNode(n019): %v, scan says %v", err, refErr)
	}
	for i := range 30 {
		v := NewVM(fmt.Sprintf("w%02d", i), "k", 1, 256)
		c.AddVM(v)
		ref.addVM(v)
		node := fmt.Sprintf("n%03d", i%20)
		if err, refErr := c.SetRunning(v.Name, node), ref.set(v.Name, Running, node); fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("SetRunning: %v, scan says %v", err, refErr)
		}
		old := fmt.Sprintf("v%03d", i)
		c.RemoveVM(old)
		ref.removeVM(old)
	}
	for i := range 20 {
		node := fmt.Sprintf("n%03d", i)
		if err, refErr := c.RemoveNode(node), ref.removeNode(node); fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("RemoveNode(%s): %v, scan says %v", node, err, refErr)
		}
	}
	wg.Wait()

	agree(t, snap, want)
	agree(t, c, ref)
	for _, d := range clones {
		agree(t, d, want)
	}
}
