package workload

import (
	"fmt"
	"math/rand"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// Generated is a random cluster configuration for the §5.1 scalability
// study: 200 working nodes (2 CPUs, 4 GiB each) hosting vjobs built
// from the NGB trace set, each vjob in a random initial state with a
// memory-viable assignment.
type Generated struct {
	// Cfg is the initial configuration.
	Cfg *vjob.Configuration
	// Jobs are the vjobs, in queue (priority) order.
	Jobs []*vjob.VJob
	// Specs carries the workload phases per vjob (index-aligned with
	// Jobs).
	Specs []Spec
}

// GenerateOptions parameterizes GenerateConfiguration.
type GenerateOptions struct {
	// Nodes is the number of working nodes (paper: 200).
	Nodes int
	// NodeCPU and NodeMemory are per-node capacities (paper: 2 CPUs,
	// 4096 MiB).
	NodeCPU, NodeMemory int
	// NodeNet and NodeDisk are the extra-dimension capacities (Mbit/s
	// and MiB/s); zero leaves the cluster in the paper's 2-D model.
	NodeNet, NodeDisk int
	// VMs is the target number of VMs; vjobs of 9 or 18 VMs are added
	// until the target is reached.
	VMs int
	// NetFraction and DiskFraction are the probabilities a generated
	// vjob is net-bound or disk-bound (see Profile); both zero keeps
	// every vjob compute-bound and the rng stream identical to the
	// pre-multi-resource generator.
	NetFraction, DiskFraction float64
	// NICPoorFraction is the probability a node gets NICPoorNet as its
	// `net` capacity instead of NodeNet — the NIC-heterogeneous mixes
	// of the migration study (an aging rack with 100 Mbit uplinks in a
	// GigE cluster). Zero keeps every node at NodeNet and the rng
	// stream untouched, so published seeds reproduce byte-identically.
	NICPoorFraction float64
	// NICPoorNet is the NIC capacity (Mbit/s) of the poor nodes.
	NICPoorNet int
}

// GenerateConfiguration builds one random sample. Running vjobs are
// placed with a memory-only first-fit (the paper guarantees the
// initial assignment satisfies the memory requirement; CPUs may be
// over-committed, which is what the context switch will fix), sleeping
// vjobs get their images on random nodes, and the rest wait.
func GenerateConfiguration(rng *rand.Rand, opts GenerateOptions) Generated {
	cfg := vjob.NewConfiguration()
	cap := resources.New(opts.NodeCPU, opts.NodeMemory)
	cap.Set(resources.NetBW, opts.NodeNet)
	cap.Set(resources.DiskIO, opts.NodeDisk)
	poor := cap
	poor.Set(resources.NetBW, opts.NICPoorNet)
	for i := 0; i < opts.Nodes; i++ {
		c := cap
		// The poor-NIC draw only runs when a heterogeneous mix is
		// requested: pure runs keep the historical rng stream.
		if opts.NICPoorFraction > 0 && rng.Float64() < opts.NICPoorFraction {
			c = poor
		}
		cfg.AddNode(vjob.NewNodeRes(fmt.Sprintf("node%03d", i), c))
	}
	g := Generated{Cfg: cfg}
	placed := 0
	for i := 0; placed < opts.VMs; i++ {
		n := 9
		if rng.Intn(2) == 1 {
			n = 18
		}
		if placed+n > opts.VMs {
			n = opts.VMs - placed
			if n == 0 {
				break
			}
		}
		bench := Benchmarks[rng.Intn(len(Benchmarks))]
		class := Classes[rng.Intn(len(Classes))]
		spec := NewSpec(fmt.Sprintf("job%03d", i), bench, class, n, i, rng)
		// Profile draw only when the generator is asked for a
		// heterogeneous mix: pure 2-D runs keep the historical rng
		// stream, so published seeds reproduce byte-identically.
		if opts.NetFraction > 0 || opts.DiskFraction > 0 {
			switch draw := rng.Float64(); {
			case draw < opts.NetFraction:
				NetBound.Apply(spec.Job)
			case draw < opts.NetFraction+opts.DiskFraction:
				DiskBound.Apply(spec.Job)
			}
		}
		// Roughly 60% of the VMs are computing right now (demanding an
		// entire processing unit); the others are staging or in
		// communication phases and release their CPU.
		for _, v := range spec.Job.VMs {
			if rng.Float64() < 0.6 {
				v.SetCPUDemand(1)
			} else {
				v.SetCPUDemand(0)
			}
		}
		for _, v := range spec.Job.VMs {
			cfg.AddVM(v)
		}
		switch rng.Intn(3) {
		case 0: // running, memory-first-fit
			if !placeByMemory(rng, cfg, spec.Job) {
				// Cluster memory exhausted: leave the vjob waiting.
				break
			}
		case 1: // sleeping with images on random nodes
			nodes := cfg.Nodes()
			for _, v := range spec.Job.VMs {
				_ = cfg.SetSleeping(v.Name, nodes[rng.Intn(len(nodes))].Name)
			}
		}
		g.Jobs = append(g.Jobs, spec.Job)
		g.Specs = append(g.Specs, spec)
		placed += n
	}
	return g
}

// placeByMemory assigns every VM of the vjob to a node with free
// memory (CPU ignored), scanning nodes from a random offset so load
// spreads. Returns false when memory runs out (nothing is rolled
// back: the caller treats the vjob as waiting, and SetWaiting resets
// the placed VMs).
func placeByMemory(rng *rand.Rand, cfg *vjob.Configuration, j *vjob.VJob) bool {
	nodes := cfg.Nodes()
	off := rng.Intn(len(nodes))
	for _, v := range j.VMs {
		placed := false
		for k := 0; k < len(nodes); k++ {
			n := nodes[(off+k)%len(nodes)]
			if cfg.Free(n.Name).Get(resources.Memory) >= v.MemoryDemand() {
				if err := cfg.SetRunning(v.Name, n.Name); err == nil {
					placed = true
					break
				}
			}
		}
		if !placed {
			for _, u := range j.VMs {
				_ = cfg.SetWaiting(u.Name)
			}
			return false
		}
	}
	return true
}
