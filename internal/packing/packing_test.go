package packing

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

func testCluster(nodes, cpu, mem int) *vjob.Configuration {
	c := vjob.NewConfiguration()
	for i := 0; i < nodes; i++ {
		c.AddNode(vjob.NewNode(fmt.Sprintf("n%02d", i), cpu, mem))
	}
	return c
}

func addVMs(c *vjob.Configuration, specs ...[2]int) []*vjob.VM {
	var vms []*vjob.VM
	for i, s := range specs {
		v := vjob.NewVM(fmt.Sprintf("vm%02d", i), "j", s[0], s[1])
		c.AddVM(v)
		vms = append(vms, v)
	}
	return vms
}

func TestSortDecreasing(t *testing.T) {
	c := testCluster(1, 8, 8192)
	vms := addVMs(c, [2]int{1, 512}, [2]int{0, 2048}, [2]int{1, 2048}, [2]int{1, 1024})
	sort.SliceStable(vms, func(i, j int) bool { return decreasing(vms[i], vms[j]) })
	wantOrder := []string{"vm02", "vm01", "vm03", "vm00"}
	for i, w := range wantOrder {
		if vms[i].Name != w {
			t.Fatalf("order[%d] = %s, want %s", i, vms[i].Name, w)
		}
	}
}

func TestFFDPlacesAll(t *testing.T) {
	c := testCluster(3, 2, 4096)
	vms := addVMs(c,
		[2]int{1, 2048}, [2]int{1, 2048}, [2]int{1, 2048},
		[2]int{1, 1024}, [2]int{1, 1024}, [2]int{1, 1024})
	if err := FirstFitDecrease(c, vms); err != nil {
		t.Fatal(err)
	}
	if !c.Viable() {
		t.Fatalf("FFD produced non-viable config: %v", c.Violations())
	}
	for _, v := range vms {
		if c.StateOf(v.Name) != vjob.Running {
			t.Fatalf("%s not running", v.Name)
		}
	}
}

func TestFFDOrderMatters(t *testing.T) {
	// Two nodes with 3 GiB; VMs 2+1 GiB per node fit only when the
	// 2 GiB VMs are placed first (decreasing order).
	c := testCluster(2, 2, 3072)
	vms := addVMs(c, [2]int{1, 1024}, [2]int{1, 2048}, [2]int{1, 1024}, [2]int{1, 2048})
	if err := FirstFitDecrease(c, vms); err != nil {
		t.Fatal(err)
	}
	if !c.Viable() {
		t.Fatal("non-viable")
	}
}

func TestFFDNoFit(t *testing.T) {
	c := testCluster(1, 1, 1024)
	vms := addVMs(c, [2]int{1, 512}, [2]int{1, 512})
	err := FirstFitDecrease(c, vms)
	var nf ErrNoFit
	if !errors.As(err, &nf) {
		t.Fatalf("err = %v, want ErrNoFit", err)
	}
	if nf.Error() == "" {
		t.Fatal("empty error text")
	}
	// On failure the configuration must be untouched.
	for _, v := range vms {
		if c.StateOf(v.Name) != vjob.Waiting {
			t.Fatalf("%s mutated on failed placement", v.Name)
		}
	}
}

func TestFFDRespectsExistingLoad(t *testing.T) {
	c := testCluster(2, 1, 4096)
	busy := vjob.NewVM("busy", "x", 1, 1024)
	c.AddVM(busy)
	if err := c.SetRunning("busy", "n00"); err != nil {
		t.Fatal(err)
	}
	vms := addVMs(c, [2]int{1, 512})
	if err := FirstFitDecrease(c, vms); err != nil {
		t.Fatal(err)
	}
	if c.HostOf("vm00") != "n01" {
		t.Fatalf("vm placed on %s, want n01 (n00 CPU is taken)", c.HostOf("vm00"))
	}
}

// Property: FFD output is always viable and deterministic.
func TestFFDViableAndDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := testCluster(1+rng.Intn(6), 2, 4096)
		var specs [][2]int
		for i := 0; i < rng.Intn(10); i++ {
			specs = append(specs, [2]int{rng.Intn(2), 256 * (1 + rng.Intn(8))})
		}
		c2 := c1.Clone()
		vms1 := addVMs(c1, specs...)
		vms2 := addVMs(c2, specs...)
		err1 := FirstFitDecrease(c1, vms1)
		err2 := FirstFitDecrease(c2, vms2)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return c1.Viable() && c1.Equal(c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRepackCreditsFreedHost: re-placing an already-running VM frees
// its old host for later VMs of the same pass (regression for the
// incremental free-resource rewrite, which initially dropped the
// credit the clone-based implementation gave).
func TestRepackCreditsFreedHost(t *testing.T) {
	c := testCluster(2, 2, 2048)
	vms := addVMs(c, [2]int{1, 2048}, [2]int{1, 2048})
	if err := c.SetRunning("vm00", "n00"); err != nil {
		t.Fatal(err)
	}
	// vm00 (running on n00) is re-placed onto n01 — n00 cannot host it
	// while it still occupies the node — and vm01 must then fit on the
	// freed n00.
	if err := FirstFitDecrease(c, vms); err != nil {
		t.Fatalf("freed host not credited: %v", err)
	}
	if !c.Viable() {
		t.Fatalf("non-viable packing:\n%s", c)
	}
}

// TestSortByDominantShare: a net-hungry VM outranks a bigger-in-memory
// compute VM once shares are weighted by cluster capacity.
func TestSortByDominantShare(t *testing.T) {
	total := resources.New(100, 100000)
	total.Set(resources.NetBW, 1000)
	netVM := vjob.NewVMRes("net", "", func() resources.Vector {
		d := resources.New(1, 1024)
		d.Set(resources.NetBW, 500) // 50% of cluster net
		return d
	}())
	memVM := vjob.NewVM("mem", "", 1, 4096) // ~4% of cluster memory
	got := []*vjob.VM{memVM, netVM}
	sort.SliceStable(got, func(i, j int) bool { return dominantFirst(total, got[i], got[j]) })
	if got[0].Name != "net" {
		t.Fatalf("order = [%s %s]", got[0].Name, got[1].Name)
	}
	// Ties fall back to the §3.2 (memory, CPU, name) ordering.
	a := vjob.NewVM("a", "", 1, 2048)
	b := vjob.NewVM("b", "", 1, 1024)
	tied := []*vjob.VM{b, a}
	sort.SliceStable(tied, func(i, j int) bool { return dominantFirst(resources.New(100, 100000), tied[i], tied[j]) })
	if tied[0].Name != "a" {
		t.Fatalf("tie order = [%s %s]", tied[0].Name, tied[1].Name)
	}
}

// TestFFDMultiDimension: first-fit must respect every dimension — two
// net-heavy VMs that fit one node on CPU/memory spread across nodes —
// and pure 2-D inputs keep the historical (memory, CPU) ordering.
func TestFFDMultiDimension(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cap := resources.New(4, 8192)
	cap.Set(resources.NetBW, 100)
	cfg.AddNode(vjob.NewNodeRes("n1", cap))
	cfg.AddNode(vjob.NewNodeRes("n2", cap))
	d := resources.New(1, 512)
	d.Set(resources.NetBW, 60)
	v1 := vjob.NewVMRes("v1", "", d)
	v2 := vjob.NewVMRes("v2", "", d)
	cfg.AddVM(v1)
	cfg.AddVM(v2)
	if err := FirstFitDecrease(cfg, []*vjob.VM{v1, v2}); err != nil {
		t.Fatal(err)
	}
	if cfg.HostOf("v1") == cfg.HostOf("v2") {
		t.Fatalf("net-heavy VMs packed together on %s", cfg.HostOf("v1"))
	}
	if !cfg.Viable() {
		t.Fatalf("FFD produced violations: %v", cfg.Violations())
	}
	// Over-subscribing the dimension reports the culprit.
	v3 := vjob.NewVMRes("v3", "", d)
	cfg.AddVM(v3)
	v4 := vjob.NewVMRes("v4", "", d)
	cfg.AddVM(v4)
	err := FirstFitDecrease(cfg, []*vjob.VM{v3, v4})
	var nf ErrNoFit
	if !errors.As(err, &nf) {
		t.Fatalf("err = %v, want ErrNoFit", err)
	}
}

// TestFirstFitPackUndoes: Pack keeps the placements of a set that fits,
// and leaves the free space as it found it when one VM of the set fits
// nowhere; Reserve takes space whether or not it fits.
func TestFirstFitPackUndoes(t *testing.T) {
	c := testCluster(2, 2, 4096)
	f := NewFirstFit(c.Nodes())
	f.Reserve("n01", resources.New(3, 1024)) // over-committed on CPU
	if !f.Pack([]*vjob.VM{vjob.NewVM("a", "j", 1, 2048), vjob.NewVM("b", "j", 1, 1024)}) {
		t.Fatal("a set fitting n00 was refused")
	}
	want := []resources.Vector{resources.New(0, 1024), resources.New(-1, 3072)}
	if !slices.Equal(f.free, want) {
		t.Fatalf("free after Pack = %v, want %v", f.free, want)
	}
	// c fits n00's memory but no CPU is left anywhere for d.
	if f.Pack([]*vjob.VM{vjob.NewVM("c", "k", 0, 1024), vjob.NewVM("d", "k", 1, 512)}) {
		t.Fatal("a set with an unplaceable VM was accepted")
	}
	if !slices.Equal(f.free, want) {
		t.Fatalf("free after a refused Pack = %v, want %v", f.free, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve on an unknown node did not panic")
		}
	}()
	f.Reserve("n99", resources.New(1, 0))
}
