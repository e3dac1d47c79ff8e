package vjob

import (
	"cwcs/internal/resources"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestConfig() *Configuration {
	c := NewConfiguration()
	for i := 0; i < 3; i++ {
		c.AddNode(NewNode(fmt.Sprintf("n%d", i+1), 1, 3072))
	}
	return c
}

func TestAddAndLookup(t *testing.T) {
	c := newTestConfig()
	v := NewVM("vm1", "j1", 1, 1024)
	c.AddVM(v)
	if got := c.VM("vm1"); got != v {
		t.Fatalf("VM lookup = %v, want %v", got, v)
	}
	if got := c.Node("n2"); got == nil || got.Name != "n2" {
		t.Fatalf("Node lookup = %v", got)
	}
	if s := c.StateOf("vm1"); s != Waiting {
		t.Fatalf("fresh VM state = %v, want waiting", s)
	}
	if c.NumNodes() != 3 || c.NumVMs() != 1 {
		t.Fatalf("counts = %d nodes, %d vms", c.NumNodes(), c.NumVMs())
	}
}

func TestStateTransitions(t *testing.T) {
	c := newTestConfig()
	c.AddVM(NewVM("vm1", "j1", 1, 1024))
	if err := c.SetRunning("vm1", "n1"); err != nil {
		t.Fatal(err)
	}
	if c.StateOf("vm1") != Running || c.HostOf("vm1") != "n1" {
		t.Fatalf("after SetRunning: state=%v host=%q", c.StateOf("vm1"), c.HostOf("vm1"))
	}
	if err := c.SetSleeping("vm1", "n2"); err != nil {
		t.Fatal(err)
	}
	if c.StateOf("vm1") != Sleeping || c.ImageHostOf("vm1") != "n2" {
		t.Fatalf("after SetSleeping: state=%v image=%q", c.StateOf("vm1"), c.ImageHostOf("vm1"))
	}
	if c.HostOf("vm1") != "" {
		t.Fatalf("sleeping VM reports host %q", c.HostOf("vm1"))
	}
	if err := c.SetWaiting("vm1"); err != nil {
		t.Fatal(err)
	}
	if c.LocationOf("vm1") != "" {
		t.Fatalf("waiting VM keeps location %q", c.LocationOf("vm1"))
	}
}

func TestSetErrors(t *testing.T) {
	c := newTestConfig()
	c.AddVM(NewVM("vm1", "j1", 1, 1024))
	if err := c.SetRunning("ghost", "n1"); err == nil {
		t.Fatal("SetRunning accepted unknown VM")
	}
	if err := c.SetRunning("vm1", "ghost"); err == nil {
		t.Fatal("SetRunning accepted unknown node")
	}
	if err := c.SetWaiting("ghost"); err == nil {
		t.Fatal("SetWaiting accepted unknown VM")
	}
}

func TestRemoveVM(t *testing.T) {
	c := newTestConfig()
	c.AddVM(NewVM("vm1", "j1", 1, 1024))
	c.AddVM(NewVM("vm2", "j1", 1, 1024))
	if err := c.SetRunning("vm1", "n1"); err != nil {
		t.Fatal(err)
	}
	c.RemoveVM("vm1")
	if c.VM("vm1") != nil {
		t.Fatal("vm1 still present after RemoveVM")
	}
	if c.StateOf("vm1") != Terminated {
		t.Fatalf("removed VM state = %v, want terminated", c.StateOf("vm1"))
	}
	if got := len(c.VMs()); got != 1 {
		t.Fatalf("VMs() length = %d, want 1", got)
	}
	c.RemoveVM("vm1") // idempotent
}

func TestResourceAccounting(t *testing.T) {
	c := newTestConfig()
	c.AddVM(NewVM("vm1", "j1", 1, 1024))
	c.AddVM(NewVM("vm2", "j1", 0, 512))
	mustRun(t, c, "vm1", "n1")
	mustRun(t, c, "vm2", "n1")
	if got := c.Used("n1").Get(resources.CPU); got != 1 {
		t.Fatalf("used CPU = %d, want 1", got)
	}
	if got := c.Used("n1").Get(resources.Memory); got != 1536 {
		t.Fatalf("used memory = %d, want 1536", got)
	}
	if got := c.Free("n1").Get(resources.CPU); got != 0 {
		t.Fatalf("free CPU = %d, want 0", got)
	}
	if got := c.Free("n1").Get(resources.Memory); got != 1536 {
		t.Fatalf("free memory = %d, want 1536", got)
	}
	if c.Fits(NewVM("x", "", 1, 100), "n1") {
		t.Fatal("Fits accepted a CPU-hungry VM on a full node")
	}
	if !c.Fits(NewVM("x", "", 0, 1536), "n1") {
		t.Fatal("Fits rejected a VM that exactly fits")
	}
	if c.Free("ghost") != (resources.Vector{}) {
		t.Fatal("free resources of unknown node should be 0")
	}
}

func TestViability(t *testing.T) {
	// Reproduces Figure 5: 3 uniprocessor nodes; VM2 and VM3 demand a
	// whole CPU. Hosting both on one node is non-viable.
	c := newTestConfig()
	c.AddVM(NewVM("vm1", "", 0, 1024))
	c.AddVM(NewVM("vm2", "", 1, 1024))
	c.AddVM(NewVM("vm3", "", 1, 1024))
	mustRun(t, c, "vm2", "n1")
	mustRun(t, c, "vm3", "n1")
	mustRun(t, c, "vm1", "n2")
	if c.Viable() {
		t.Fatal("two busy VMs on one uniprocessor node reported viable")
	}
	vio := c.Violations()
	if len(vio) != 1 || vio[0].Node != "n1" || vio[0].Resource != "cpu" {
		t.Fatalf("violations = %+v", vio)
	}
	if vio[0].Error() == "" {
		t.Fatal("violation error string empty")
	}
	// Figure 5(b): spreading the busy VMs is viable.
	mustRun(t, c, "vm3", "n3")
	if !c.Viable() {
		t.Fatalf("spread configuration not viable: %+v", c.Violations())
	}
}

func TestMemoryViolation(t *testing.T) {
	c := NewConfiguration()
	c.AddNode(NewNode("n1", 4, 1024))
	c.AddVM(NewVM("vm1", "", 1, 800))
	c.AddVM(NewVM("vm2", "", 1, 800))
	mustRun(t, c, "vm1", "n1")
	mustRun(t, c, "vm2", "n1")
	vio := c.Violations()
	if len(vio) != 1 || vio[0].Resource != "memory" {
		t.Fatalf("violations = %+v", vio)
	}
}

func TestSleepingConsumesNothing(t *testing.T) {
	c := NewConfiguration()
	c.AddNode(NewNode("n1", 1, 1024))
	c.AddVM(NewVM("vm1", "", 1, 1024))
	c.AddVM(NewVM("vm2", "", 1, 1024))
	mustRun(t, c, "vm1", "n1")
	if err := c.SetSleeping("vm2", "n1"); err != nil {
		t.Fatal(err)
	}
	if !c.Viable() {
		t.Fatal("sleeping VM should not consume resources")
	}
	if got := len(c.SleepingOn("n1")); got != 1 {
		t.Fatalf("SleepingOn = %d, want 1", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := newTestConfig()
	c.AddVM(NewVM("vm1", "j1", 1, 1024))
	mustRun(t, c, "vm1", "n1")
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal to original")
	}
	mustRun(t, d, "vm1", "n2")
	if c.HostOf("vm1") != "n1" {
		t.Fatal("mutating clone affected original")
	}
	if c.Equal(d) {
		t.Fatal("Equal missed a placement difference")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := newTestConfig()
	b := newTestConfig()
	if !a.Equal(b) {
		t.Fatal("empty configs differ")
	}
	a.AddVM(NewVM("vm1", "", 1, 512))
	if a.Equal(b) {
		t.Fatal("Equal missed a VM count difference")
	}
	b.AddVM(NewVM("vm2", "", 1, 512))
	if a.Equal(b) {
		t.Fatal("Equal missed a VM name difference")
	}
	b2 := newTestConfig()
	b2.AddVM(NewVM("vm1", "", 1, 512))
	mustRun(t, a, "vm1", "n1")
	if err := b2.SetSleeping("vm1", "n1"); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b2) {
		t.Fatal("Equal missed a state difference")
	}
}

func TestDeterministicOrder(t *testing.T) {
	c := NewConfiguration()
	for _, n := range []string{"n3", "n1", "n2"} {
		c.AddNode(NewNode(n, 2, 4096))
	}
	for _, v := range []string{"vmB", "vmA", "vmC"} {
		c.AddVM(NewVM(v, "", 0, 256))
	}
	nodes := c.Nodes()
	for i, want := range []string{"n1", "n2", "n3"} {
		if nodes[i].Name != want {
			t.Fatalf("node order %v", nodes)
		}
	}
	vms := c.VMs()
	for i, want := range []string{"vmA", "vmB", "vmC"} {
		if vms[i].Name != want {
			t.Fatalf("vm order %v", vms)
		}
	}
}

func TestVJobStateDerivation(t *testing.T) {
	c := newTestConfig()
	j := NewVJob("j1", 0, NewVM("a", "", 1, 512), NewVM("b", "", 1, 512))
	for _, v := range j.VMs {
		c.AddVM(v)
	}
	if s := c.VJobState(j); s != Waiting {
		t.Fatalf("fresh vjob state = %v", s)
	}
	mustRun(t, c, "a", "n1")
	if s := c.VJobState(j); s != Running {
		t.Fatalf("partially running vjob state = %v, want running", s)
	}
	mustRun(t, c, "b", "n2")
	if s := c.VJobState(j); s != Running {
		t.Fatalf("running vjob state = %v", s)
	}
	if err := c.SetSleeping("a", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSleeping("b", "n2"); err != nil {
		t.Fatal(err)
	}
	if s := c.VJobState(j); s != Sleeping {
		t.Fatalf("sleeping vjob state = %v", s)
	}
	c.RemoveVM("a")
	c.RemoveVM("b")
	if s := c.VJobState(j); s != Terminated {
		t.Fatalf("terminated vjob state = %v", s)
	}
	if s := c.VJobState(NewVJob("empty", 0)); s != Terminated {
		t.Fatalf("empty vjob state = %v", s)
	}
}

func TestLifeCycleTransitions(t *testing.T) {
	cases := []struct {
		from, to State
		ok       bool
	}{
		{Waiting, Running, true},
		{Waiting, Sleeping, false},
		{Waiting, Terminated, false},
		{Running, Sleeping, true},
		{Running, Running, true}, // migration
		{Running, Terminated, true},
		{Running, Waiting, false},
		{Sleeping, Running, true},
		{Sleeping, Terminated, false},
		{Sleeping, Waiting, false},
		{Terminated, Running, false},
		{Terminated, Terminated, true},
	}
	for _, tc := range cases {
		if got := ValidTransition(tc.from, tc.to); got != tc.ok {
			t.Errorf("ValidTransition(%v,%v) = %v, want %v", tc.from, tc.to, got, tc.ok)
		}
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Waiting: "waiting", Running: "running", Sleeping: "sleeping",
		Terminated: "terminated", State(42): "invalid",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if !Waiting.Ready() || !Sleeping.Ready() || Running.Ready() || Terminated.Ready() {
		t.Fatal("Ready() pseudo-state wrong")
	}
}

func TestVJobAggregates(t *testing.T) {
	j := NewVJob("j", 3, NewVM("a", "", 1, 512), NewVM("b", "", 0, 2048))
	if j.TotalCPU() != 1 {
		t.Fatalf("TotalCPU = %d", j.TotalCPU())
	}
	if j.TotalMemory() != 2560 {
		t.Fatalf("TotalMemory = %d", j.TotalMemory())
	}
	for _, v := range j.VMs {
		if v.VJob != "j" {
			t.Fatalf("VM %s not stamped with vjob name", v.Name)
		}
	}
}

func TestStringRendering(t *testing.T) {
	c := newTestConfig()
	c.AddVM(NewVM("vm1", "", 1, 512))
	c.AddVM(NewVM("vm2", "", 1, 512))
	c.AddVM(NewVM("vm3", "", 1, 512))
	mustRun(t, c, "vm1", "n1")
	if err := c.SetSleeping("vm2", "n1"); err != nil {
		t.Fatal(err)
	}
	s := c.String()
	for _, want := range []string{"n1: vm1 (vm2)", "waiting: vm3"} {
		if !contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if NewNode("n", 1, 2).String() != "n[cpu=1,mem=2]" {
		t.Fatal("node String format changed")
	}
	if NewVM("v", "", 1, 2).String() != "v[cpu=1,mem=2]" {
		t.Fatal("vm String format changed")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNode accepted negative capacity")
		}
	}()
	NewNode("bad", -1, 0)
}

func TestNegativeDemandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVM accepted negative demand")
		}
	}()
	NewVM("bad", "", 0, -5)
}

// Property: placements never make accounting negative, clones stay
// equal until mutated, and viability matches a brute-force check.
func TestViabilityMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewConfiguration()
		nNodes := 1 + rng.Intn(5)
		for i := 0; i < nNodes; i++ {
			c.AddNode(NewNode(fmt.Sprintf("n%d", i), 1+rng.Intn(4), 512*(1+rng.Intn(8))))
		}
		nVMs := rng.Intn(12)
		for i := 0; i < nVMs; i++ {
			v := NewVM(fmt.Sprintf("v%d", i), "", rng.Intn(3), 256*(1+rng.Intn(8)))
			c.AddVM(v)
			node := fmt.Sprintf("n%d", rng.Intn(nNodes))
			switch rng.Intn(3) {
			case 0:
				if err := c.SetRunning(v.Name, node); err != nil {
					return false
				}
			case 1:
				if err := c.SetSleeping(v.Name, node); err != nil {
					return false
				}
			}
		}
		// Brute-force viability.
		viable := true
		for _, n := range c.Nodes() {
			cpu, mem := 0, 0
			for _, v := range c.VMs() {
				if c.StateOf(v.Name) == Running && c.HostOf(v.Name) == n.Name {
					cpu += v.CPUDemand()
					mem += v.MemoryDemand()
				}
			}
			if cpu > n.CPU() || mem > n.Memory() {
				viable = false
			}
		}
		return viable == c.Viable() && c.Equal(c.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveNodeRefusesPlacements: a node leaves the configuration
// only once nothing — running VM or suspended image — is placed on it.
func TestRemoveNodeRefusesPlacements(t *testing.T) {
	c := NewConfiguration()
	c.AddNode(NewNode("m0", 2, 4096))
	c.AddNode(NewNode("m1", 2, 4096))
	c.AddVM(NewVM("v1", "j", 1, 1024))
	if err := c.RemoveNode("ghost"); err == nil {
		t.Fatal("removed an unknown node")
	}
	if err := c.SetRunning("v1", "m0"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode("m0"); err == nil {
		t.Fatal("removed a node hosting a running VM")
	}
	if err := c.SetSleeping("v1", "m0"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode("m0"); err == nil {
		t.Fatal("removed a node holding an image")
	}
	if err := c.SetWaiting("v1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode("m0"); err != nil {
		t.Fatalf("empty node not removable: %v", err)
	}
	if c.Node("m0") != nil || c.NumNodes() != 1 {
		t.Fatal("node still present after removal")
	}
	if got := c.Nodes(); len(got) != 1 || got[0].Name != "m1" {
		t.Fatalf("node order after removal: %v", got)
	}
}

// TestRemoveNodeErrorIsStable: a refused removal names the first VM in
// name order still placed on the node, the same one on every call.
func TestRemoveNodeErrorIsStable(t *testing.T) {
	c := NewConfiguration()
	c.AddNode(NewNode("m0", 4, 4096))
	for _, v := range []string{"vc", "va", "vb"} {
		c.AddVM(NewVM(v, "j", 1, 512))
	}
	mustRun(t, c, "vc", "m0")
	mustRun(t, c, "vb", "m0")
	if err := c.SetSleeping("va", "m0"); err != nil {
		t.Fatal(err)
	}
	const want = "vjob: node m0 still holds va (sleeping)"
	for i := 0; i < 50; i++ {
		if err := c.RemoveNode("m0"); err == nil || err.Error() != want {
			t.Fatalf("call %d: RemoveNode = %v, want %q", i, err, want)
		}
	}
}

// TestIndexNeverCachesDemand: demand changes in place through the VM
// object a configuration shares with its clones, so every per-node
// query must read the demand of the moment, in the original and in the
// clone alike.
func TestIndexNeverCachesDemand(t *testing.T) {
	c := NewConfiguration()
	c.AddNode(NewNode("n1", 2, 2048))
	c.AddNode(NewNode("n2", 2, 2048))
	hot := NewVM("hot", "j", 1, 512)
	c.AddVM(hot)
	c.AddVM(NewVM("cold", "j", 0, 512))
	mustRun(t, c, "hot", "n1")
	mustRun(t, c, "cold", "n1")
	d := c.Clone()
	// Warm every query before the change.
	for _, cfg := range []*Configuration{c, d} {
		if !cfg.Viable() || cfg.Used("n1") != resources.New(1, 1024) {
			t.Fatalf("before the change: used %s, violations %v", cfg.Used("n1"), cfg.Violations())
		}
	}
	hot.SetCPUDemand(3)
	hot.SetMemoryDemand(1024)
	probe := NewVM("probe", "", 0, 1024)
	for name, cfg := range map[string]*Configuration{"original": c, "clone": d} {
		if got := cfg.Used("n1"); got != resources.New(3, 1536) {
			t.Errorf("%s: Used = %s, want cpu 3, memory 1536", name, got)
		}
		if got := cfg.Free("n1"); got != resources.New(-1, 512) {
			t.Errorf("%s: Free = %s, want cpu -1, memory 512", name, got)
		}
		if cfg.Fits(probe, "n1") {
			t.Errorf("%s: Fits accepted 1024 MiB beside 1536 of 2048", name)
		}
		if vs := cfg.Violations(); len(vs) != 1 || vs[0].Node != "n1" || vs[0].Resource != "cpu" || vs[0].Demand != 3 {
			t.Errorf("%s: Violations = %v, want n1 cpu 3 > 2", name, vs)
		}
	}
}

// TestViolationsMultiDimension: Violations reports every over-committed
// dimension by wire name, in node then registry order.
func TestViolationsMultiDimension(t *testing.T) {
	c := NewConfiguration()
	cap := resources.New(2, 4096)
	cap.Set(resources.NetBW, 100)
	c.AddNode(NewNodeRes("n1", cap))
	d := resources.New(3, 512)
	d.Set(resources.NetBW, 150)
	c.AddVM(NewVMRes("v1", "j", d))
	mustRun(t, c, "v1", "n1")
	vs := c.Violations()
	if len(vs) != 2 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Resource != "cpu" || vs[0].Demand != 3 || vs[0].Capacity != 2 {
		t.Fatalf("cpu violation = %+v", vs[0])
	}
	if vs[1].Resource != "net" || vs[1].Demand != 150 || vs[1].Capacity != 100 {
		t.Fatalf("net violation = %+v", vs[1])
	}
}

// TestFreeResourcesMultiDimension: the single-pass free map carries
// every dimension at once and matches the per-node accessors.
func TestFreeResourcesMultiDimension(t *testing.T) {
	c := NewConfiguration()
	cap := resources.New(4, 8192)
	cap.Set(resources.DiskIO, 600)
	c.AddNode(NewNodeRes("n1", cap))
	d := resources.New(1, 1024)
	d.Set(resources.DiskIO, 150)
	c.AddVM(NewVMRes("v1", "j", d))
	mustRun(t, c, "v1", "n1")
	free := c.FreeResources()
	if got := free["n1"]; got.Get(resources.DiskIO) != 450 || got.Get(resources.CPU) != 3 {
		t.Fatalf("free = %s", got)
	}
	if free["n1"] != c.Free("n1") {
		t.Fatalf("FreeResources disagrees with Free: %s vs %s", free["n1"], c.Free("n1"))
	}
	if got := c.Free("n1"); got.Get(resources.CPU) != 3 || got.Get(resources.Memory) != 7168 {
		t.Fatalf("Free = %s, want 3 CPU and 7168 MiB", got)
	}
}

// TestAppendDangling: placements naming a node the configuration no
// longer holds (RemoveNode refuses to leave one behind, so the test
// drops the nodes behind its back) come from the index's keys, in name
// order, after what dst already held.
func TestAppendDangling(t *testing.T) {
	c := newTestConfig()
	for _, v := range []string{"b", "a", "c", "d"} {
		c.AddVM(NewVM(v, "j", 0, 0))
	}
	for _, err := range []error{c.SetRunning("b", "n1"), c.SetSleeping("a", "n2"), c.SetRunning("c", "n1"), c.SetRunning("d", "n3")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := c.AppendDangling(nil); len(got) != 0 {
		t.Fatalf("dangling placements on a consistent configuration: %v", got)
	}
	delete(c.nodes, "n1")
	delete(c.nodes, "n2")
	c.nodeOrder = []string{"n3"}
	d := c.VM("d")
	var names []string
	for _, v := range c.AppendDangling([]*VM{d}) {
		names = append(names, v.Name)
	}
	if got := fmt.Sprint(names); got != "[d a b c]" {
		t.Fatalf("AppendDangling = %s, want [d a b c]", got)
	}
}
