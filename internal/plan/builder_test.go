package plan

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// TestGraphDiff covers every transition the graph generates.
func TestGraphDiff(t *testing.T) {
	src := cluster(t, 3, 2, 4096)
	mk := func(name string, mem int) *vjob.VM {
		v := vjob.NewVM(name, "j", 1, mem)
		src.AddVM(v)
		return v
	}
	mk("stay", 512)   // running, unchanged
	mk("move", 512)   // running -> migrated
	mk("sleep", 512)  // running -> suspended
	mk("dead", 512)   // running -> terminated
	mk("wake", 512)   // sleeping -> running
	mk("fresh", 512)  // waiting -> running
	mk("idle", 512)   // waiting, unchanged
	mk("frozen", 512) // sleeping, unchanged

	for vm, node := range map[string]string{"stay": "N1", "move": "N1", "sleep": "N2", "dead": "N2"} {
		if err := src.SetRunning(vm, node); err != nil {
			t.Fatal(err)
		}
	}
	for vm, node := range map[string]string{"wake": "N3", "frozen": "N3"} {
		if err := src.SetSleeping(vm, node); err != nil {
			t.Fatal(err)
		}
	}

	dst := src.Clone()
	dst.RemoveVM("dead")
	for vm, node := range map[string]string{"move": "N2", "wake": "N3", "fresh": "N3"} {
		if err := dst.SetRunning(vm, node); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.SetSleeping("sleep", "N2"); err != nil {
		t.Fatal(err)
	}

	g, err := BuildGraph(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, a := range g.Actions {
		got[a.String()] = true
	}
	want := []string{
		"migrate(move,N1,N2)",
		"suspend(sleep,N2,N2)",
		"stop(dead,N2)",
		"resume(wake,N3,N3)",
		"run(fresh,N3)",
	}
	if len(g.Actions) != len(want) {
		t.Fatalf("graph has %d actions (%v), want %d", len(g.Actions), got, len(want))
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing action %s in %v", w, got)
		}
	}
	// Local resume costs Dm: the action costs sum to 512*3 (migrate +
	// suspend + local resume).
	sum := 0
	for _, a := range g.Actions {
		sum += a.Cost()
	}
	if sum != 512*3 {
		t.Fatalf("summed action cost = %d, want %d", sum, 512*3)
	}
	if !strings.Contains(g.String(), "run(fresh,N3)") {
		t.Fatal("graph String misses actions")
	}
}

func TestGraphRejectsInvalidTransition(t *testing.T) {
	src := cluster(t, 1, 2, 4096)
	v := vjob.NewVM("vm", "j", 1, 512)
	src.AddVM(v)
	if err := src.SetRunning("vm", "N1"); err != nil {
		t.Fatal(err)
	}
	dst := src.Clone()
	if err := dst.SetWaiting("vm"); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildGraph(src, dst); err == nil {
		t.Fatal("running -> waiting accepted")
	}
}

func TestGraphRejectsUnknownNode(t *testing.T) {
	src := cluster(t, 1, 2, 4096)
	v := vjob.NewVM("vm", "j", 1, 512)
	src.AddVM(v)
	dst := src.Clone()
	dst.AddNode(vjob.NewNode("ghost", 2, 4096))
	if err := dst.SetRunning("vm", "ghost"); err != nil {
		t.Fatal(err)
	}
	// Rebuild a source that does not know "ghost" either.
	if _, err := BuildGraph(src, dst); err != nil {
		t.Fatalf("node known to dst must be accepted: %v", err)
	}
}

// TestSequentialConstraint reproduces Figure 7: migrate(VM1,N1,N2) can
// only begin once suspend(VM2) liberated N2's memory, so the plan has
// two sequential pools.
func TestSequentialConstraint(t *testing.T) {
	src := cluster(t, 2, 2, 3072)
	vm1 := vjob.NewVM("vm1", "a", 1, 2048)
	vm2 := vjob.NewVM("vm2", "b", 1, 2048)
	src.AddVM(vm1)
	src.AddVM(vm2)
	if err := src.SetRunning("vm1", "N1"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetRunning("vm2", "N2"); err != nil {
		t.Fatal(err)
	}
	dst := src.Clone()
	if err := dst.SetSleeping("vm2", "N2"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetRunning("vm1", "N2"); err != nil {
		t.Fatal(err)
	}

	p, err := Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pools) != 2 {
		t.Fatalf("plan:\n%s\nwant 2 pools", p)
	}
	if _, ok := p.Pools[0][0].(*Suspend); !ok {
		t.Fatalf("pool 0 should hold the suspend, got %s", p.Pools[0][0])
	}
	if _, ok := p.Pools[1][0].(*Migration); !ok {
		t.Fatalf("pool 1 should hold the migration, got %s", p.Pools[1][0])
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(dst) {
		t.Fatalf("plan result differs from destination:\n%s\nvs\n%s", res, dst)
	}
}

// TestCycleBreaking reproduces Figure 8: VM1 and VM2 must swap nodes
// but neither migration is feasible; a bypass migration through pivot
// N3 breaks the cycle.
func TestCycleBreaking(t *testing.T) {
	src := cluster(t, 3, 2, 3072)
	vm1 := vjob.NewVM("vm1", "a", 1, 2048)
	vm2 := vjob.NewVM("vm2", "b", 1, 2048)
	src.AddVM(vm1)
	src.AddVM(vm2)
	if err := src.SetRunning("vm1", "N1"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetRunning("vm2", "N2"); err != nil {
		t.Fatal(err)
	}
	dst := src.Clone()
	if err := dst.SetRunning("vm1", "N2"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetRunning("vm2", "N1"); err != nil {
		t.Fatal(err)
	}

	p, err := Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bypass != 1 {
		t.Fatalf("bypass count = %d, want 1\n%s", p.Bypass, p)
	}
	if p.NumActions() != 3 {
		t.Fatalf("action count = %d, want 3 (two migrations + bypass)\n%s", p.NumActions(), p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(dst) {
		t.Fatalf("swap not realized:\n%s", res)
	}
}

// TestUnbreakableCycle: a swap with no pivot capacity anywhere must
// return ErrNoProgress rather than an invalid plan.
func TestUnbreakableCycle(t *testing.T) {
	src := cluster(t, 2, 1, 2048)
	vm1 := vjob.NewVM("vm1", "a", 1, 2048)
	vm2 := vjob.NewVM("vm2", "b", 1, 2048)
	src.AddVM(vm1)
	src.AddVM(vm2)
	if err := src.SetRunning("vm1", "N1"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetRunning("vm2", "N2"); err != nil {
		t.Fatal(err)
	}
	dst := src.Clone()
	if err := dst.SetRunning("vm1", "N2"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetRunning("vm2", "N1"); err != nil {
		t.Fatal(err)
	}
	_, err := Build(src, dst)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
}

// TestFigure9TwoPools rebuilds the reconfiguration graph of Figure 9:
// pool 1 = {suspend(VM3), migrate(VM1)}, pool 2 = {resume(VM5),
// run(VM6)}.
func TestFigure9TwoPools(t *testing.T) {
	src := cluster(t, 3, 2, 3072)
	vm1 := vjob.NewVM("vm1", "a", 1, 1024)
	vm3 := vjob.NewVM("vm3", "b", 1, 2048)
	vm5 := vjob.NewVM("vm5", "c", 1, 2048)
	vm6 := vjob.NewVM("vm6", "d", 1, 1024)
	for _, v := range []*vjob.VM{vm1, vm3, vm5, vm6} {
		src.AddVM(v)
	}
	// N1 hosts vm1; N2 hosts vm3 (to be suspended); vm5 sleeps on N2;
	// vm6 waits. Destination: vm1 on N2, vm3 asleep, vm5 resumed on
	// N2... that would not fit; use N3 for the resume and N1 for the
	// run so the second pool depends on the first only through vm1's
	// migration and vm3's suspend.
	if err := src.SetRunning("vm1", "N1"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetRunning("vm3", "N2"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetSleeping("vm5", "N3"); err != nil {
		t.Fatal(err)
	}

	dst := src.Clone()
	if err := dst.SetSleeping("vm3", "N2"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetRunning("vm1", "N2"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetRunning("vm5", "N1"); err != nil { // remote resume N3 -> N1
		t.Fatal(err)
	}
	if err := dst.SetRunning("vm6", "N1"); err != nil {
		t.Fatal(err)
	}

	p, err := Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, p)
	}
	res, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(dst) {
		t.Fatal("figure 9 destination not reached")
	}
	// vm1's migration needs vm3's suspend? No: N2 has 3072, vm3 uses
	// 2048, vm1 needs 1024 -> fits immediately. But vm5's resume on N1
	// needs vm1 gone (N1: 3072, vm1 1024, vm5 2048 fits!). And vm6 on
	// N1 (1024) needs vm1's migration. So two pools appear.
	if len(p.Pools) != 2 {
		t.Fatalf("pools = %d, want 2\n%s", len(p.Pools), p)
	}
}

// TestCostModel checks the §4.2 aggregation on a hand-built plan.
func TestCostModel(t *testing.T) {
	vmA := vjob.NewVM("a", "j", 1, 1000)
	vmB := vjob.NewVM("b", "j", 1, 600)
	vmC := vjob.NewVM("c", "j", 1, 400)
	p := &Plan{Pools: []Pool{
		{&Suspend{Machine: vmA, On: "N1", To: "N1"}, &Migration{Machine: vmB, Src: "N2", Dst: "N3"}},
		{&Resume{Machine: vmC, From: "N1", On: "N2"}}, // remote: 800
	}}
	// Pool 0 cost = max(1000, 600) = 1000.
	if got := p.Pools[0].Cost(); got != 1000 {
		t.Fatalf("pool 0 cost = %d", got)
	}
	// Plan cost = (0+1000) + (0+600) + (1000+800) = 3400.
	if got := p.Cost(); got != 3400 {
		t.Fatalf("plan cost = %d, want 3400", got)
	}
	if p.NumActions() != 3 {
		t.Fatalf("NumActions = %d", p.NumActions())
	}
	if len(p.Actions()) != 3 {
		t.Fatal("Actions() length")
	}
	if !strings.Contains(p.String(), "plan cost: 3400") {
		t.Fatalf("String() = %q", p.String())
	}
}

// TestVJobResumeGrouping: the resumes of one vjob spread over several
// pools must be regrouped into the last pool that held one.
func TestVJobResumeGrouping(t *testing.T) {
	src := cluster(t, 3, 1, 2048)
	// j1 has two sleeping VMs. One can resume immediately (N3 empty);
	// the other must wait for blocker's suspend on N2.
	r1 := vjob.NewVM("j1-r1", "", 1, 1024)
	r2 := vjob.NewVM("j1-r2", "", 1, 1024)
	blocker := vjob.NewVM("blocker", "", 1, 1024)
	_ = vjob.NewVJob("j1", 0, r1, r2)
	src.AddVM(r1)
	src.AddVM(r2)
	src.AddVM(blocker)
	if err := src.SetSleeping("j1-r1", "N3"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetSleeping("j1-r2", "N2"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetRunning("blocker", "N2"); err != nil {
		t.Fatal(err)
	}

	dst := src.Clone()
	if err := dst.SetSleeping("blocker", "N2"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetRunning("j1-r1", "N3"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetRunning("j1-r2", "N2"); err != nil {
		t.Fatal(err)
	}

	// The raw pools: pool0 = {suspend(blocker), resume(j1-r1)},
	// pool1 = {resume(j1-r2)}.
	ungrouped, err := Builder{}.Pools(mustGraph(t, src, dst))
	if err != nil {
		t.Fatal(err)
	}
	if poolOfVM(ungrouped, "j1-r1") == poolOfVM(ungrouped, "j1-r2") {
		t.Fatalf("test premise broken: resumes already together\n%s", ungrouped)
	}

	grouped, err := Builder{}.Plan(mustGraph(t, src, dst))
	if err != nil {
		t.Fatal(err)
	}
	if poolOfVM(grouped, "j1-r1") != poolOfVM(grouped, "j1-r2") {
		t.Fatalf("vjob resumes not grouped:\n%s", grouped)
	}
	if err := grouped.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := grouped.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(dst) {
		t.Fatal("grouped plan misses destination")
	}
}

// TestGroupingOrderIsDeterministic: two vjobs whose resume moves
// exclude each other — both images sit behind one NIC that carries
// three transfers, not four — must get the same plan on every build,
// whichever vjob the grouping pass tries first.
func TestGroupingOrderIsDeterministic(t *testing.T) {
	src := vjob.NewConfiguration()
	images := resources.New(0, 0)
	images.Set(resources.NetBW, 3*ResumePushRateMbps)
	src.AddNode(vjob.NewNodeRes("store", images))
	for _, d := range []string{"d1", "d2"} {
		hosts := resources.New(2, 2048)
		hosts.Set(resources.NetBW, 1000)
		src.AddNode(vjob.NewNodeRes(d, hosts))
	}
	dst := src.Clone()
	for _, job := range []struct{ name, host string }{{"a", "d1"}, {"b", "d2"}} {
		// A running blocker holds half the host until its suspend.
		blocker := vjob.NewVM(job.name+"-blocker", "", 1, 1024)
		src.AddVM(blocker)
		dst.AddVM(blocker)
		if err := src.SetRunning(blocker.Name, job.host); err != nil {
			t.Fatal(err)
		}
		if err := dst.SetSleeping(blocker.Name, job.host); err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 2; k++ {
			v := vjob.NewVM(fmt.Sprintf("%s-%d", job.name, k), job.name, 1, 1024)
			src.AddVM(v)
			dst.AddVM(v)
			if err := src.SetSleeping(v.Name, "store"); err != nil {
				t.Fatal(err)
			}
			if err := dst.SetRunning(v.Name, job.host); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := mustGraph(t, src, dst)
	raw, err := Builder{}.Pools(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []string{"a", "b"} {
		if poolOfVM(raw, job+"-1") == poolOfVM(raw, job+"-2") {
			t.Fatalf("test premise broken: %s resumes already together\n%s", job, raw)
		}
	}
	first, err := Builder{}.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	grouped := 0
	for _, job := range []string{"a", "b"} {
		if poolOfVM(first, job+"-1") == poolOfVM(first, job+"-2") {
			grouped++
		}
	}
	if grouped != 1 {
		t.Fatalf("test premise broken: %d vjobs grouped, want exactly 1\n%s", grouped, first)
	}
	for i := 0; i < 64; i++ {
		p, err := Builder{}.Plan(g)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != first.String() {
			t.Fatalf("build %d differs:\n%s\nfirst:\n%s", i, p, first)
		}
	}
}

func mustGraph(t *testing.T, src, dst *vjob.Configuration) *Graph {
	t.Helper()
	g, err := BuildGraph(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func poolOfVM(p *Plan, vm string) int {
	for i, pool := range p.Pools {
		for _, a := range pool {
			if a.VM().Name == vm {
				return i
			}
		}
	}
	return -1
}

// Property: the vjob-grouping pass never changes the destination and
// always leaves a valid plan, whatever the configuration pair.
func TestGroupingPreservesDestination(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 2 + rng.Intn(4)
		c := vjob.NewConfiguration()
		for i := 0; i < nNodes; i++ {
			c.AddNode(vjob.NewNode(fmt.Sprintf("n%02d", i), 2, 4096))
		}
		// Several vjobs, some with multiple sleeping VMs, so the
		// grouping pass has resumes to move.
		for j := 0; j < 2+rng.Intn(3); j++ {
			job := fmt.Sprintf("j%d", j)
			for k := 0; k < 1+rng.Intn(3); k++ {
				v := vjob.NewVM(fmt.Sprintf("%s-%d", job, k), job, rng.Intn(2), 256*(1+rng.Intn(6)))
				c.AddVM(v)
				if rng.Intn(2) == 0 {
					_ = c.SetSleeping(v.Name, fmt.Sprintf("n%02d", rng.Intn(nNodes)))
				}
			}
		}
		dst := c.Clone()
		for _, v := range dst.VMs() {
			if dst.StateOf(v.Name) != vjob.Sleeping {
				continue
			}
			// Try to resume everywhere viable.
			for _, n := range dst.Nodes() {
				if dst.Fits(v, n.Name) {
					_ = dst.SetRunning(v.Name, n.Name)
					break
				}
			}
		}
		if !dst.Viable() {
			return true
		}
		g, err := BuildGraph(c, dst)
		if err != nil {
			return true
		}
		grouped, err1 := Builder{}.Plan(g)
		ungrouped, err2 := Builder{}.Pools(g)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		rg, err := grouped.Result()
		if err != nil || !rg.Equal(dst) {
			return false
		}
		ru, err := ungrouped.Result()
		if err != nil || !ru.Equal(dst) {
			return false
		}
		return grouped.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesOverload: a hand-built plan whose single pool
// overloads a node must fail validation.
func TestValidateCatchesOverload(t *testing.T) {
	src := cluster(t, 2, 1, 4096)
	a := vjob.NewVM("a", "", 1, 512)
	b := vjob.NewVM("b", "", 1, 512)
	src.AddVM(a)
	src.AddVM(b)
	p := &Plan{Src: src, Pools: []Pool{{
		&Run{Machine: a, On: "N1"},
		&Run{Machine: b, On: "N1"}, // jointly overload N1's single CPU
	}}}
	if err := p.Validate(); err == nil {
		t.Fatal("joint overload not caught")
	}
}

// TestValidateAllowsShrinkingPreexistingOverload: a plan evacuating an
// overloaded node keeps a smaller violation alive on it during the
// early pools; that is the cure in progress, not a plan-introduced
// violation, and must validate.
func TestValidateAllowsShrinkingPreexistingOverload(t *testing.T) {
	src := cluster(t, 2, 2, 8192)
	vms := make([]*vjob.VM, 4)
	for i := range vms {
		v := vjob.NewVM(fmt.Sprintf("v%d", i), "", 1, 512)
		src.AddVM(v)
		vms[i] = v
		if err := src.SetRunning(v.Name, "N1"); err != nil {
			t.Fatal(err)
		}
	}
	// N1 demand 4 > capacity 2 before the plan runs. Pool 0 drains one
	// VM (demand 3, still over), pool 1 a second (demand 2, cured).
	p := &Plan{Src: src, Pools: []Pool{
		{&Migration{Machine: vms[0], Src: "N1", Dst: "N2"}},
		{&Migration{Machine: vms[1], Src: "N1", Dst: "N2"}},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("shrinking pre-existing overload refused: %v", err)
	}
}

// Property: for random source/destination configuration pairs that are
// individually viable, the builder either reports ErrNoProgress or
// produces a plan that validates and reaches the destination exactly.
func TestBuilderReachesDestination(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 2 + rng.Intn(5)
		c := vjob.NewConfiguration()
		for i := 0; i < nNodes; i++ {
			c.AddNode(vjob.NewNode(fmt.Sprintf("n%02d", i), 2, 4096))
		}
		nVMs := 1 + rng.Intn(10)
		for i := 0; i < nVMs; i++ {
			v := vjob.NewVM(fmt.Sprintf("vm%02d", i), fmt.Sprintf("j%d", i%3), rng.Intn(2), 256*(1+rng.Intn(8)))
			c.AddVM(v)
		}
		src := randomViable(rng, c)
		dst := randomViable(rng, src.Clone())
		// Fix invalid life-cycle transitions (waiting VMs cannot have
		// been sleeping before; sleeping cannot return to waiting...).
		for _, v := range src.VMs() {
			relocated := src.StateOf(v.Name) == vjob.Sleeping && dst.StateOf(v.Name) == vjob.Sleeping &&
				src.ImageHostOf(v.Name) != dst.ImageHostOf(v.Name)
			if relocated || !vjob.ValidTransition(src.StateOf(v.Name), dst.StateOf(v.Name)) {
				// Re-align: keep the source state/placement.
				switch src.StateOf(v.Name) {
				case vjob.Running:
					if err := dst.SetRunning(v.Name, src.HostOf(v.Name)); err != nil {
						return false
					}
				case vjob.Sleeping:
					if err := dst.SetSleeping(v.Name, src.ImageHostOf(v.Name)); err != nil {
						return false
					}
				default:
					if err := dst.SetWaiting(v.Name); err != nil {
						return false
					}
				}
			}
		}
		if !dst.Viable() {
			return true // re-alignment may have overloaded; skip
		}
		p, err := Build(src, dst)
		if errors.Is(err, ErrNoProgress) {
			return true
		}
		if err != nil {
			t.Logf("seed %d: build error %v", seed, err)
			return false
		}
		if err := p.Validate(); err != nil {
			t.Logf("seed %d: validate: %v\n%s", seed, err, p)
			return false
		}
		res, err := p.Result()
		if err != nil {
			return false
		}
		if !res.Equal(dst) {
			t.Logf("seed %d: wrong destination", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomViable assigns each VM of c a random state/placement that
// keeps the configuration viable (first node that fits among a random
// scan order; falls back to sleeping or waiting).
func randomViable(rng *rand.Rand, c *vjob.Configuration) *vjob.Configuration {
	nodes := c.Nodes()
	for _, v := range c.VMs() {
		choice := rng.Intn(3)
		placed := false
		if choice == 0 { // try to run somewhere
			off := rng.Intn(len(nodes))
			for k := range nodes {
				n := nodes[(off+k)%len(nodes)]
				if c.Fits(v, n.Name) {
					if err := c.SetRunning(v.Name, n.Name); err == nil {
						placed = true
					}
					break
				}
			}
		}
		if !placed && choice <= 1 {
			n := nodes[rng.Intn(len(nodes))]
			if err := c.SetSleeping(v.Name, n.Name); err == nil {
				placed = true
			}
		}
		if !placed {
			_ = c.SetWaiting(v.Name)
		}
	}
	return c
}
