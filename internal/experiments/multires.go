package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/resources"
	"cwcs/internal/sched"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// MultiResOptions parameterizes the multi-dimensional packing study:
// a heterogeneous cluster (compute-, net- and disk-bound vjobs over
// nodes with CPU/memory/network/disk capacities) is reconfigured twice
// — once by a stack that only sees CPU and memory, once by the full
// 4-dimension model — and the study measures what the blind stack
// over-commits. No paper analogue: the paper packs the first two
// dimensions only (§4.3) and names nothing past them.
type MultiResOptions struct {
	// Nodes is the cluster size.
	Nodes int
	// Optimizer solves both sides alike.
	Optimizer core.Optimizer
	// Seed drives configuration generation.
	Seed int64
}

// The multi-resource study's cluster: §5.1 nodes with the workload
// generator's default NIC and disk, 1.5 VMs per node, with 30 % of the
// vjobs net-bound and 20 % disk-bound (workload.Profile).
const (
	multiresVMFactor     = 1.5
	multiresNetFraction  = 0.3
	multiresDiskFraction = 0.2
)

// DefaultMultiResOptions is the full-size scenario of `experiments
// multires`: a 500-node cluster, half of whose vjobs are bound on a
// dimension the 2-D model cannot see.
func DefaultMultiResOptions() MultiResOptions {
	return MultiResOptions{
		Nodes:     500,
		Optimizer: core.Optimizer{Timeout: 2 * time.Second},
		Seed:      1,
	}
}

// MultiResSide is one solve of the study.
type MultiResSide struct {
	// Model names the side: "cpu+mem" or "4-dim".
	Model string
	// SolveMS is the solve wall-clock in milliseconds.
	SolveMS float64
	// Cost is the §4.2 plan cost; Optimal whether the model was proven.
	Cost    int
	Optimal bool
	// Err records a failed solve (empty on success).
	Err string
	// Running counts VMs left running by the destination.
	Running int
	// Violations counts, per resource kind, the capacity violations of
	// the destination measured against the TRUE demands — the blind
	// side computes its destination on stripped demands, so this is
	// where its over-commitment surfaces.
	Violations map[string]int
}

// MultiResResult is the study's measurements.
type MultiResResult struct {
	Nodes, VMs int
	// NetBoundVMs / DiskBoundVMs count VMs whose demand reaches the
	// bound profiles' headline quantity on the respective dimension
	// (disk-bound VMs carry a light net demand too, and vice versa, so
	// a non-zero test would double-count).
	NetBoundVMs, DiskBoundVMs int
	// SrcViolations counts the initial placement's violations per
	// kind (the memory-first-fit start over-commits freely).
	SrcViolations map[string]int
	// Blind is the CPU+memory-only stack; Aware the 4-dimension model.
	Blind, Aware MultiResSide
}

// stripExtras deep-copies the configuration with every extra dimension
// zeroed on nodes and VMs: the view a CPU+memory-only stack observes.
// VM and node objects are fresh, so mutating demands cannot leak back.
func stripExtras(src *vjob.Configuration) *vjob.Configuration {
	out := vjob.NewConfiguration()
	for _, n := range src.Nodes() {
		out.AddNode(vjob.NewNode(n.Name, n.CPU(), n.Memory()))
	}
	for _, v := range src.VMs() {
		out.AddVM(vjob.NewVM(v.Name, v.VJob, v.CPUDemand(), v.MemoryDemand()))
	}
	for _, v := range src.VMs() {
		switch src.StateOf(v.Name) {
		case vjob.Running:
			_ = out.SetRunning(v.Name, src.HostOf(v.Name))
		case vjob.Sleeping:
			_ = out.SetSleeping(v.Name, src.ImageHostOf(v.Name))
		}
	}
	return out
}

// jobsOf regroups the configuration's VMs into vjobs, preserving the
// priority order of the originals — the blind stack needs vjob handles
// over its own stripped VM objects.
func jobsOf(cfg *vjob.Configuration, orig []*vjob.VJob) []*vjob.VJob {
	out := make([]*vjob.VJob, 0, len(orig))
	for _, j := range orig {
		vms := make([]*vjob.VM, 0, len(j.VMs))
		for _, v := range j.VMs {
			if sv := cfg.VM(v.Name); sv != nil {
				vms = append(vms, sv)
			}
		}
		nj := vjob.NewVJob(j.Name, j.Priority, vms...)
		nj.Submitted = j.Submitted
		out = append(out, nj)
	}
	return out
}

// transplant replays dst's states and placements onto a clone of the
// true configuration, so a destination computed on stripped demands
// can be audited against the demands it ignored.
func transplant(trueSrc, dst *vjob.Configuration) (*vjob.Configuration, error) {
	out := trueSrc.Clone()
	for _, v := range trueSrc.VMs() {
		var err error
		switch dst.StateOf(v.Name) {
		case vjob.Running:
			err = out.SetRunning(v.Name, dst.HostOf(v.Name))
		case vjob.Sleeping:
			err = out.SetSleeping(v.Name, dst.ImageHostOf(v.Name))
		case vjob.Waiting:
			err = out.SetWaiting(v.Name)
		case vjob.Terminated:
			out.RemoveVM(v.Name)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// violationsByKind tallies the configuration's capacity violations per
// resource kind (all kinds present, zero when clean).
func violationsByKind(cfg *vjob.Configuration) map[string]int {
	out := make(map[string]int, resources.NumKinds())
	for _, k := range resources.Kinds() {
		out[k.String()] = 0
	}
	for _, v := range cfg.Violations() {
		out[v.Resource]++
	}
	return out
}

// multiresWorkload generates the study's cluster.
func multiresWorkload(opts MultiResOptions) workload.Generated {
	rng := rand.New(rand.NewSource(opts.Seed))
	return workload.GenerateConfiguration(rng, workload.GenerateOptions{
		Nodes:   opts.Nodes,
		NodeCPU: paperNodeCPU, NodeMemory: paperNodeMemory,
		NodeNet: workload.DefaultNodeNet, NodeDisk: workload.DefaultNodeDisk,
		VMs:         int(float64(opts.Nodes) * multiresVMFactor),
		NetFraction: multiresNetFraction, DiskFraction: multiresDiskFraction,
	})
}

// RunMultiRes executes the study.
func RunMultiRes(opts MultiResOptions) MultiResResult {
	g := multiresWorkload(opts)
	res := MultiResResult{
		Nodes:         opts.Nodes,
		VMs:           g.Cfg.NumVMs(),
		SrcViolations: violationsByKind(g.Cfg),
	}
	for _, v := range g.Cfg.VMs() {
		if v.Demand.Get(resources.NetBW) >= workload.NetBoundBandwidth {
			res.NetBoundVMs++
		}
		if v.Demand.Get(resources.DiskIO) >= workload.DiskBoundThroughput {
			res.DiskBoundVMs++
		}
	}

	// Blind side: decision AND optimization see stripped demands, then
	// the destination is audited against the truth.
	blindSrc := stripExtras(g.Cfg)
	blindJobs := jobsOf(blindSrc, g.Jobs)
	res.Blind = solveSide("cpu+mem", opts.Optimizer, core.Problem{
		Src:    blindSrc,
		Target: sched.Consolidation{}.Decide(blindSrc, blindJobs),
	}, g.Cfg)

	// Aware side: the full 4-dimension model end to end.
	res.Aware = solveSide("4-dim", opts.Optimizer, core.Problem{
		Src:    g.Cfg,
		Target: sched.Consolidation{}.Decide(g.Cfg, g.Jobs),
	}, g.Cfg)
	return res
}

// solveSide runs one optimization and audits its destination against
// the true configuration. Violations stays nil until the audit ran: a
// failed solve has no destination, and reporting the source's counts
// in its place would attribute the initial over-commitment to the
// model.
func solveSide(model string, opt core.Optimizer, p core.Problem, trueSrc *vjob.Configuration) MultiResSide {
	side := MultiResSide{Model: model}
	start := time.Now()
	r, err := opt.Solve(p)
	side.SolveMS = float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		side.Err = err.Error()
		return side
	}
	side.Cost, side.Optimal = r.Cost, r.Optimal
	truth, terr := transplant(trueSrc, r.Dst)
	if terr != nil {
		side.Err = terr.Error()
		return side
	}
	side.Running = len(truth.InState(vjob.Running))
	side.Violations = violationsByKind(truth)
	return side
}

// MultiResTable renders the study.
func MultiResTable(r MultiResResult) string {
	var b strings.Builder
	b.WriteString("Multi-dimensional packing: CPU+mem-only vs 4-dim model\n")
	fmt.Fprintf(&b, "%d nodes, %d VMs (%d net-bound, %d disk-bound); initial violations %s\n",
		r.Nodes, r.VMs, r.NetBoundVMs, r.DiskBoundVMs, renderViolations(r.SrcViolations))
	fmt.Fprintf(&b, "%8s | %10s %10s %4s %8s | %s\n", "model", "solve_ms", "cost", "opt", "running", "violations (true demands)")
	for _, s := range []MultiResSide{r.Blind, r.Aware} {
		if s.Err != "" {
			fmt.Fprintf(&b, "%8s | FAILED: %s\n", s.Model, s.Err)
			continue
		}
		fmt.Fprintf(&b, "%8s | %10.0f %10d %4v %8d | %s\n",
			s.Model, s.SolveMS, s.Cost, s.Optimal, s.Running, renderViolations(s.Violations))
	}
	return b.String()
}

// renderViolations lists the per-kind counts in registry order.
func renderViolations(m map[string]int) string {
	parts := make([]string, 0, len(m))
	for _, k := range resources.Kinds() {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k.String()]))
	}
	return strings.Join(parts, " ")
}

// MultiResCSV renders the study as CSV for external plotting. A failed
// solve has no destination audit, so its violation columns stay empty
// rather than echoing counts that would read as results.
func MultiResCSV(r MultiResResult) string {
	var b strings.Builder
	b.WriteString("model,ok,solve_ms,cost,optimal,running,cpu_viol,memory_viol,net_viol,disk_viol\n")
	for _, s := range []MultiResSide{r.Blind, r.Aware} {
		if s.Err != "" {
			fmt.Fprintf(&b, "%s,false,%.1f,,,,,,,\n", s.Model, s.SolveMS)
			continue
		}
		fmt.Fprintf(&b, "%s,true,%.1f,%d,%v,%d,%d,%d,%d,%d\n",
			s.Model, s.SolveMS, s.Cost, s.Optimal, s.Running,
			s.Violations["cpu"], s.Violations["memory"], s.Violations["net"], s.Violations["disk"])
	}
	return b.String()
}
