// Package workload generates the synthetic vjobs used by the
// evaluation. The paper replays NAS Grid Benchmarks (ED, HC, VP, MB in
// classes W, A and B) inside vjobs of 9 or 18 VMs; the suite is not
// redistributable here, so this package produces deterministic
// synthetic equivalents preserving what the scheduler observes: gangs
// of VMs alternating full-CPU computation phases and zero-CPU
// communication phases, with per-class durations and the paper's
// memory sizes (256/512/1024/2048 MiB). It also generates the random
// 200-node configurations of the §5.1 scalability study (Figure 10).
package workload

import (
	"fmt"
	"math/rand"

	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// Benchmark identifies the NAS Grid data-flow graph shape.
type Benchmark int

const (
	// ED (Embarrassingly Distributed): independent tasks, one long
	// compute phase per VM.
	ED Benchmark = iota
	// HC (Helical Chain): tasks execute one after the other; VM i
	// idles, computes its link, then idles again.
	HC
	// VP (Visualization Pipeline): repeated compute/communicate
	// cycles across the gang.
	VP
	// MB (Mixed Bag): heterogeneous mix of short and long tasks.
	MB
)

// Benchmarks lists all shapes, for sweeps.
var Benchmarks = []Benchmark{ED, HC, VP, MB}

// String names the benchmark as in the NGB suite.
func (b Benchmark) String() string {
	switch b {
	case ED:
		return "ED"
	case HC:
		return "HC"
	case VP:
		return "VP"
	case MB:
		return "MB"
	default:
		return "??"
	}
}

// Class is the NGB problem size.
type Class int

const (
	// W is the workstation class (shortest).
	W Class = iota
	// A is the small class.
	A
	// B is the medium class.
	B
)

// Classes lists the paper's three sizes.
var Classes = []Class{W, A, B}

// String names the class.
func (c Class) String() string { return [...]string{"W", "A", "B"}[c] }

// baseSeconds is the per-class unit of compute work.
func (c Class) baseSeconds() float64 {
	switch c {
	case W:
		return 60
	case A:
		return 180
	default:
		return 420
	}
}

// MemorySizes are the VM memory demands used throughout the paper.
var MemorySizes = []int{256, 512, 1024, 2048}

// Spec bundles a generated vjob with the workload phases of each VM.
type Spec struct {
	// Job is the vjob (VMs stamped with the vjob name).
	Job *vjob.VJob
	// Bench and Size describe the generated application.
	Bench Benchmark
	Size  Class
	// Phases maps VM names to their workload.
	Phases map[string][]sim.Phase
}

// TotalWork returns the total compute seconds across the vjob's VMs.
// Iteration follows the VM order so the floating-point sum is
// deterministic.
func (s Spec) TotalWork() float64 {
	sum := 0.0
	for _, v := range s.Job.VMs {
		for _, p := range s.Phases[v.Name] {
			if p.CPU > 0 {
				sum += p.Seconds
			}
		}
	}
	return sum
}

// Install registers the spec's VMs in the configuration (Waiting) and
// its phases in the simulator.
func (s Spec) Install(cfg *vjob.Configuration, c *sim.Cluster) {
	for _, v := range s.Job.VMs {
		cfg.AddVM(v)
	}
	for name, ph := range s.Phases {
		c.SetWorkload(name, ph)
	}
}

// NewSpec generates a vjob of nVMs machines running the given
// benchmark/class. Randomness (memory sizes, jitter) comes from rng,
// so a fixed seed reproduces the workload exactly.
func NewSpec(name string, bench Benchmark, class Class, nVMs, priority int, rng *rand.Rand) Spec {
	vms := make([]*vjob.VM, nVMs)
	phases := make(map[string][]sim.Phase, nVMs)
	base := class.baseSeconds()
	for i := range vms {
		mem := MemorySizes[rng.Intn(len(MemorySizes))]
		vmName := fmt.Sprintf("%s-vm%02d", name, i)
		vms[i] = vjob.NewVM(vmName, name, 1, mem)
		phases[vmName] = genPhases(bench, base, i, nVMs, rng)
	}
	job := vjob.NewVJob(name, priority, vms...)
	return Spec{Job: job, Bench: bench, Size: class, Phases: phases}
}

// StagingSeconds is the length of the zero-CPU staging phase that
// opens every workload: NGB tasks stage input data and set their MPI
// world up before computing. It is during such low-demand windows
// that a dynamic scheduler packs extra vjobs — and later pays with a
// suspend when every task computes at once (the paper's overloaded
// instant at 2 min 10 s).
const StagingSeconds = 25

// genPhases builds the phase list of one VM according to the
// benchmark's data-flow shape. Every list opens with the staging
// phase.
func genPhases(bench Benchmark, base float64, idx, n int, rng *rand.Rand) []sim.Phase {
	jitter := func(s float64) float64 { return s * (0.9 + 0.2*rng.Float64()) }
	staging := sim.Phase{CPU: 0, Seconds: jitter(StagingSeconds)}
	return append([]sim.Phase{staging}, bodyPhases(bench, base, idx, n, rng, jitter)...)
}

func bodyPhases(bench Benchmark, base float64, idx, n int, rng *rand.Rand, jitter func(float64) float64) []sim.Phase {
	switch bench {
	case ED:
		// One long independent computation.
		return []sim.Phase{{CPU: 1, Seconds: jitter(base)}}
	case HC:
		// The chain: wait for predecessors, compute, wait for the
		// chain to finish.
		link := base / float64(n)
		var ph []sim.Phase
		if idx > 0 {
			ph = append(ph, sim.Phase{CPU: 0, Seconds: link * float64(idx)})
		}
		ph = append(ph, sim.Phase{CPU: 1, Seconds: jitter(link)})
		if idx < n-1 {
			ph = append(ph, sim.Phase{CPU: 0, Seconds: link * float64(n-1-idx)})
		}
		return ph
	case VP:
		// Pipeline: alternate compute and exchange, three stages.
		stage := base / 3
		var ph []sim.Phase
		for s := 0; s < 3; s++ {
			ph = append(ph,
				sim.Phase{CPU: 1, Seconds: jitter(stage)},
				sim.Phase{CPU: 0, Seconds: stage / 10})
		}
		return ph
	default: // MB
		// Mixed bag: 1-3 tasks of random length.
		k := 1 + rng.Intn(3)
		var ph []sim.Phase
		for s := 0; s < k; s++ {
			ph = append(ph, sim.Phase{CPU: 1, Seconds: jitter(base / float64(k))})
			if s < k-1 {
				ph = append(ph, sim.Phase{CPU: 0, Seconds: base / 20})
			}
		}
		return ph
	}
}
