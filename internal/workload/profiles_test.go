package workload

import (
	"math/rand"
	"testing"

	"cwcs/internal/resources"
)

func TestProfileNamesAndDemands(t *testing.T) {
	if ComputeBound.String() != "compute-bound" || NetBound.String() != "net-bound" || DiskBound.String() != "disk-bound" {
		t.Fatal("profile names drifted")
	}
	if !ComputeBound.ExtraDemand().IsZero() {
		t.Fatalf("compute-bound extras = %s", ComputeBound.ExtraDemand())
	}
	net := NetBound.ExtraDemand()
	if net.Get(resources.NetBW) != NetBoundBandwidth || net.Get(resources.DiskIO) != NetBoundDisk {
		t.Fatalf("net-bound extras = %s", net)
	}
	if net.Get(resources.CPU) != 0 || net.Get(resources.Memory) != 0 {
		t.Fatalf("profile touched base dimensions: %s", net)
	}
	disk := DiskBound.ExtraDemand()
	if disk.Get(resources.DiskIO) != DiskBoundThroughput || disk.Get(resources.NetBW) != DiskBoundBandwidth {
		t.Fatalf("disk-bound extras = %s", disk)
	}
}

func TestProfileApply(t *testing.T) {
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	plain := NewSpec("j", ED, A, 4, 0, rngA)
	netty := NewSpec("j", ED, A, 4, 0, rngB)
	NetBound.Apply(netty.Job)
	for i, v := range netty.Job.VMs {
		if v.Demand.Get(resources.NetBW) != NetBoundBandwidth {
			t.Fatalf("VM %d net demand = %d", i, v.Demand.Get(resources.NetBW))
		}
		// Same rng consumption: base dimensions match the plain spec.
		if v.MemoryDemand() != plain.Job.VMs[i].MemoryDemand() || v.CPUDemand() != plain.Job.VMs[i].CPUDemand() {
			t.Fatalf("profile perturbed the base workload at VM %d", i)
		}
	}
	// ComputeBound.Apply is a no-op.
	before := plain.Job.VMs[0].Demand
	ComputeBound.Apply(plain.Job)
	if plain.Job.VMs[0].Demand != before {
		t.Fatal("compute-bound Apply mutated demands")
	}
}

func TestGenerateHeterogeneous(t *testing.T) {
	opts := paperOptions(180)
	opts.NodeNet = DefaultNodeNet
	opts.NodeDisk = DefaultNodeDisk
	opts.NetFraction = 0.4
	opts.DiskFraction = 0.3
	g := GenerateConfiguration(rand.New(rand.NewSource(3)), opts)
	n := g.Cfg.Nodes()[0]
	if n.Capacity.Get(resources.NetBW) != DefaultNodeNet || n.Capacity.Get(resources.DiskIO) != DefaultNodeDisk {
		t.Fatalf("node capacity = %s", n.Capacity)
	}
	netVMs, diskVMs := 0, 0
	for _, v := range g.Cfg.VMs() {
		if v.Demand.Get(resources.NetBW) >= NetBoundBandwidth {
			netVMs++
		}
		if v.Demand.Get(resources.DiskIO) >= DiskBoundThroughput {
			diskVMs++
		}
	}
	if netVMs == 0 || diskVMs == 0 {
		t.Fatalf("no bound vjobs generated: net=%d disk=%d", netVMs, diskVMs)
	}

	// Zero fractions keep the generator on the paper's 2-D model: no
	// extra demands, no extra node capacity (and no profile rng draws,
	// so published seeds keep reproducing — the workload_test goldens
	// pin the stream itself).
	legacy := GenerateConfiguration(rand.New(rand.NewSource(3)), paperOptions(180))
	for _, v := range legacy.Cfg.VMs() {
		if v.Demand.HasExtra() {
			t.Fatalf("2-D generation grew extras: %s", v.Demand)
		}
	}
	if legacy.Cfg.Nodes()[0].Capacity.HasExtra() {
		t.Fatal("2-D generation grew node extras")
	}
}

func TestGenerateNICPoorMix(t *testing.T) {
	opts := paperOptions(90)
	opts.NodeNet = DefaultNodeNet
	opts.NICPoorFraction = 0.25
	opts.NICPoorNet = 100
	g := GenerateConfiguration(rand.New(rand.NewSource(7)), opts)
	poor, rich := 0, 0
	for _, n := range g.Cfg.Nodes() {
		switch n.Capacity.Get(resources.NetBW) {
		case 100:
			poor++
		case DefaultNodeNet:
			rich++
		default:
			t.Fatalf("node %s has unexpected NIC %d", n.Name, n.Capacity.Get(resources.NetBW))
		}
	}
	if rich+poor != opts.Nodes {
		t.Fatalf("rich+poor = %d, want %d", rich+poor, opts.Nodes)
	}
	// ~25% of 200 nodes; a wide tolerance keeps the test seed-robust.
	if poor < 20 || poor > 80 {
		t.Fatalf("poor nodes = %d, want roughly 50", poor)
	}

	// A zero fraction must not consume rng: the stream (and thus the
	// whole configuration) stays byte-identical to a generator that
	// predates the option.
	a := GenerateConfiguration(rand.New(rand.NewSource(7)), paperOptions(90))
	zeroed := paperOptions(90)
	zeroed.NICPoorNet = 100 // ignored without a fraction
	b := GenerateConfiguration(rand.New(rand.NewSource(7)), zeroed)
	if !a.Cfg.Equal(b.Cfg) {
		t.Fatal("NICPoorFraction=0 perturbed the rng stream")
	}
}
