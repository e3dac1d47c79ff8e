package core

import (
	"testing"
	"time"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// TestCompileActiveDimensions: only dimensions some to-be-running VM
// demands become active — a pure CPU+memory problem compiles exactly
// the paper's two Packing instances, extra registered kinds compile
// away.
func TestCompileActiveDimensions(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cap := resources.New(2, 4096)
	cap.Set(resources.NetBW, 1000) // capacity alone must not activate
	cfg.AddNode(vjob.NewNodeRes("n1", cap))
	cfg.AddNode(vjob.NewNodeRes("n2", cap))
	cfg.AddVM(vjob.NewVM("v1", "j", 1, 512))
	if err := cfg.SetRunning("v1", "n1"); err != nil {
		t.Fatal(err)
	}
	c, err := Optimizer{}.compile(Problem{Src: cfg}, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	if !c.active[resources.CPU] || !c.active[resources.Memory] {
		t.Fatalf("base dimensions inactive: %v", c.active)
	}
	if c.active[resources.NetBW] || c.active[resources.DiskIO] {
		t.Fatalf("undemanded dimensions active: %v", c.active)
	}

	// One VM with a net demand activates exactly that extra dimension.
	d := resources.New(1, 512)
	d.Set(resources.NetBW, 100)
	cfg.AddVM(vjob.NewVMRes("v2", "j", d))
	if err := cfg.SetRunning("v2", "n2"); err != nil {
		t.Fatal(err)
	}
	c, err = Optimizer{}.compile(Problem{Src: cfg}, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	if !c.active[resources.NetBW] || c.active[resources.DiskIO] {
		t.Fatalf("net activation wrong: %v", c.active)
	}
}

// TestSolveRespectsExtraDimension: two VMs that fit together on CPU
// and memory but jointly exceed one node's network capacity must be
// separated — the generalized §4.3 model treats the extra dimension as
// a first-class viability constraint.
func TestSolveRespectsExtraDimension(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cap := resources.New(4, 8192)
	cap.Set(resources.NetBW, 100)
	cfg.AddNode(vjob.NewNodeRes("n1", cap))
	cfg.AddNode(vjob.NewNodeRes("n2", cap))
	d := resources.New(1, 512)
	d.Set(resources.NetBW, 60)
	cfg.AddVM(vjob.NewVMRes("v1", "j", d))
	cfg.AddVM(vjob.NewVMRes("v2", "j", d))
	if err := cfg.SetRunning("v1", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetRunning("v2", "n1"); err != nil {
		t.Fatal(err)
	}
	if cfg.Viable() {
		t.Fatal("source should over-commit net on n1")
	}
	res, err := Optimizer{Timeout: 5 * time.Second, Workers: 1}.Solve(Problem{Src: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dst.Viable() {
		t.Fatalf("destination not viable: %v", res.Dst.Violations())
	}
	if res.Dst.HostOf("v1") == res.Dst.HostOf("v2") {
		t.Fatalf("net-heavy VMs share %s", res.Dst.HostOf("v1"))
	}
	// The cheap fix is one migration: cost TransferSize = Dm + net
	// demand = 512 + 60 (the net-chatty VM dirties pages during the
	// pre-copy rounds, so its transfer volume folds the rate in).
	if res.Cost != 572 {
		t.Fatalf("cost = %d, want one 572-MiB-equivalent migration", res.Cost)
	}
}

// TestFitsMultiDimension: Configuration.Fits honours every dimension.
func TestFitsMultiDimension(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cap := resources.New(2, 4096)
	cap.Set(resources.DiskIO, 100)
	cfg.AddNode(vjob.NewNodeRes("n1", cap))
	d := resources.New(1, 512)
	d.Set(resources.DiskIO, 150)
	v := vjob.NewVMRes("v1", "j", d)
	cfg.AddVM(v)
	if cfg.Fits(v, "n1") {
		t.Fatal("disk-starved node accepted the VM")
	}
	d.Set(resources.DiskIO, 50)
	v2 := vjob.NewVMRes("v2", "j", d)
	cfg.AddVM(v2)
	if !cfg.Fits(v2, "n1") {
		t.Fatal("fitting VM rejected")
	}
}

// TestPressureOverExtraDimensions: the partitioner's seam metric is
// the max over dimensions — an atom overloaded only on net reads as
// overloaded, one with headroom everywhere reads negative.
func TestPressureOverExtraDimensions(t *testing.T) {
	tot := resources.New(100, 1000)
	tot.Set(resources.NetBW, 500)
	capacity := resources.New(10, 100)
	capacity.Set(resources.NetBW, 50)
	demand := resources.New(5, 50)
	demand.Set(resources.NetBW, 80) // +30 of 500 total
	hot := &atom{nodes: 1, vms: 1, over: demand.Sub(capacity)}
	if p := hot.pressure(tot); p <= 0 {
		t.Fatalf("net-overloaded atom pressure = %v", p)
	}
	demand.Set(resources.NetBW, 10)
	cool := &atom{nodes: 1, vms: 1, over: demand.Sub(capacity)}
	if p := cool.pressure(tot); p >= 0 {
		t.Fatalf("cool atom pressure = %v", p)
	}
	// A dimension the cluster does not offer is skipped, not a NaN.
	if p := cool.pressure(resources.New(100, 1000)); p >= 0 {
		t.Fatalf("pressure with missing totals = %v", p)
	}
}
