package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/duration"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// MigrationOptions parameterizes the bandwidth-aware context-switch
// study (DESIGN.md §9): a NIC-heterogeneous cluster — most nodes carry
// the calibration's GigE link, a fraction sit on an aging 100 Mbit/s
// rack — is reconfigured by the same consolidation decision twice, once
// with the transfer-blind planner (pre-fix behavior: pools ignore what
// concurrent migrations do to a NIC) and once with the bandwidth-aware
// planner that serializes NIC-conflicting transfers. Each plan then
// executes on the metered simulator, which charges every in-flight
// transfer on both endpoints' `net` dimension and re-times it as
// concurrency changes, and the study integrates the violation exposure
// the plan caused. A fenced variant replays both sides under cross-rack
// Fence rules — the administrative response to 10x-cost inter-rack
// links — and reports the 10x-weighted wire cost both ways. No paper
// analogue: the paper's testbed is NIC-homogeneous and its §4.2 costs
// are memory-only.
type MigrationOptions struct {
	// Nodes is the cluster size.
	Nodes int
	// Racks partitions the node index space into equal contiguous
	// racks for the fenced variant and the cross-rack wire-cost
	// metric.
	Racks int
	// FencedVariant also runs both sides under cross-rack Fence rules.
	FencedVariant bool
	// Optimizer solves every cell alike; each side sets its own
	// Builder.
	Optimizer core.Optimizer
	// Seed drives configuration generation.
	Seed int64
}

// The migration study's cluster: §5.1 nodes, 1.5 VMs per node, on the
// calibration's GigE NIC except a quarter of them on a 100 Mbit/s
// rack; each plan executes until it completes or the horizon (virtual
// seconds) cuts it off.
const (
	migrationNICPoorFraction = 0.25
	migrationNICPoorNet      = 100
	migrationVMFactor        = 1.5
	migrationHorizon         = 100_000.0
)

// DefaultMigrationOptions is the full-size scenario of `experiments
// migration`: a 500-node cluster of which a quarter sits behind
// 100 Mbit/s NICs.
func DefaultMigrationOptions() MigrationOptions {
	return MigrationOptions{
		Nodes:         500,
		Racks:         8,
		FencedVariant: true,
		// The fenced cells need the larger budget: cross-rack Fence
		// rules make the first feasible solution substantially harder
		// to find than on the open cluster (2 s suffices there).
		Optimizer: core.Optimizer{Timeout: 15 * time.Second},
		Seed:      1,
	}
}

// MigrationSide is one planner model executed on the metered simulator.
type MigrationSide struct {
	// Model names the side: "blind" (no transfer gating) or "aware".
	Model string
	// SolveMS is the solve wall-clock in milliseconds.
	SolveMS float64
	// Cost is the §4.2 plan cost (TransferSize-folded).
	Cost int
	// Pools and Actions describe the plan's shape; Transfers counts
	// the actions that push data between nodes, CrossRack the subset
	// whose endpoints sit in different racks.
	Pools, Actions, Transfers, CrossRack int
	// WireCost10x is the transferred volume with cross-rack transfers
	// weighted 10x — the bill an administrator of 10x-priced
	// inter-rack links reads. A fenced switch may pay a one-time
	// repatriation bill (pulling scattered vjobs into their home rack)
	// to make every later switch rack-local.
	WireCost10x int
	// MakespanS is the virtual duration of the executed switch.
	MakespanS float64
	// ViolationSeconds integrates, over the execution, the violations
	// the plan itself caused: transfer-oversubscribed NICs plus
	// capacity violations on node/dimension pairs that were clean in
	// the initial configuration. The pre-existing overload the switch
	// exists to fix is excluded, so blind and aware compare on what
	// their scheduling added. TransferViolationSeconds is the
	// NIC-oversubscription share of that integral: the transfer-aware
	// planner drives it to zero by construction.
	ViolationSeconds         float64
	TransferViolationSeconds float64
	// FailedActions counts per-action failures during execution;
	// StructuralBreaches the sim.WatchInvariants structural errors
	// (both must be zero on a healthy run).
	FailedActions, StructuralBreaches int
	// Err records a failed solve (empty on success).
	Err string
}

// MigrationVariant is one rule regime, run under both planner models.
type MigrationVariant struct {
	// Name is "open" (no placement rules) or "fenced" (cross-rack
	// Fence rules).
	Name         string
	Blind, Aware MigrationSide
}

// MigrationResult is the study's measurements.
type MigrationResult struct {
	Nodes, PoorNodes, VMs, Racks int
	Variants                     []MigrationVariant
}

// migrationWorkload regenerates the study's cluster; each cell gets a
// fresh copy (execution mutates the configuration) from the same seed.
func migrationWorkload(opts MigrationOptions) workload.Generated {
	rng := rand.New(rand.NewSource(opts.Seed))
	return workload.GenerateConfiguration(rng, workload.GenerateOptions{
		Nodes:   opts.Nodes,
		NodeCPU: paperNodeCPU, NodeMemory: paperNodeMemory,
		NodeNet:         workload.DefaultNodeNet,
		NICPoorFraction: migrationNICPoorFraction, NICPoorNet: migrationNICPoorNet,
		VMs: int(float64(opts.Nodes) * migrationVMFactor),
	})
}

// rackIndex maps every node name to its rack: equal contiguous slices
// of the generator's node order.
func rackIndex(cfg *vjob.Configuration, racks int) (map[string]int, [][]string) {
	nodes := cfg.Nodes()
	idx := make(map[string]int, len(nodes))
	groups := make([][]string, racks)
	for i, n := range nodes {
		r := i * racks / len(nodes)
		idx[n.Name] = r
		groups[r] = append(groups[r], n.Name)
	}
	return idx, groups
}

// rackFences builds one Fence per vjob, pinning it to the rack hosting
// the plurality of its VMs (images count too): with inter-rack links
// priced 10x, an administrator keeps each vjob's traffic rack-local.
// VJobs with no located VM (fully waiting) stay unfenced.
func rackFences(cfg *vjob.Configuration, jobs []*vjob.VJob, racks int) []core.PlacementRule {
	idx, groups := rackIndex(cfg, racks)
	var rules []core.PlacementRule
	for _, j := range jobs {
		count := make([]int, racks)
		located := false
		for _, v := range j.VMs {
			if loc := cfg.LocationOf(v.Name); loc != "" {
				count[idx[loc]]++
				located = true
			}
		}
		if !located {
			continue
		}
		best := 0
		for r, n := range count {
			if n > count[best] {
				best = r
			}
		}
		names := make([]string, len(j.VMs))
		for i, v := range j.VMs {
			names[i] = v.Name
		}
		rules = append(rules, core.Fence{VMs: names, Nodes: groups[best]})
	}
	return rules
}

// runMigrationSide solves one cell and executes its plan on the
// metered simulator.
func runMigrationSide(opts MigrationOptions, model string, blind, fenced bool) MigrationSide {
	side := MigrationSide{Model: model}
	g := migrationWorkload(opts)
	p := core.Problem{Src: g.Cfg, Target: sched.Consolidation{}.Decide(g.Cfg, g.Jobs)}
	if fenced {
		p.Rules = rackFences(g.Cfg, g.Jobs, opts.Racks)
	}
	opt := opts.Optimizer
	opt.Builder = plan.Builder{DisableTransferGating: blind}
	start := time.Now()
	r, err := opt.Solve(p)
	side.SolveMS = float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		side.Err = err.Error()
		return side
	}
	side.Cost = r.Cost
	side.Pools = len(r.Plan.Pools)
	side.Actions = r.Plan.NumActions()

	idx, _ := rackIndex(g.Cfg, opts.Racks)
	for _, pool := range r.Plan.Pools {
		for _, a := range pool {
			t, ok := plan.TransferDemandOf(a)
			if !ok {
				continue
			}
			side.Transfers++
			vol := plan.TransferSize(a.VM())
			if idx[t.Src] != idx[t.Dst] {
				side.CrossRack++
				vol *= 10
			}
			side.WireCost10x += vol
		}
	}

	// Execute on the metered simulator and integrate the violations
	// the plan itself caused: everything beyond the initial overload.
	c := sim.New(g.Cfg, duration.Default())
	inv := sim.WatchInvariants(c)
	// Baseline by node/dimension pair: a magnitude change on an
	// already-overloaded node is the pre-existing overload evolving,
	// not a violation the plan introduced.
	baseline := make(map[string]bool)
	for _, v := range g.Cfg.Violations() {
		baseline[v.Node+"/"+v.Resource] = true
	}
	total, xferTotal, lastT := 0.0, 0.0, 0.0
	lastN, lastX := 0, 0
	c.OnAdvance(func(a *sim.Audit) {
		now := c.Now()
		if now > lastT {
			total += float64(lastN) * (now - lastT)
			xferTotal += float64(lastX) * (now - lastT)
			lastT = now
		}
		lastX = len(a.Transfer)
		lastN = lastX
		for _, v := range a.Violations {
			if !baseline[v.Node+"/"+v.Resource] {
				lastN++
			}
		}
	})
	finished := false
	drivers.Start(c, r.Plan, drivers.Callbacks{Done: func(rep drivers.Report) {
		finished = true
		side.MakespanS = rep.Duration()
		side.FailedActions = len(rep.Errs)
	}})
	c.Run(migrationHorizon)
	if !finished {
		side.Err = fmt.Sprintf("execution hit the %.0f s horizon", migrationHorizon)
	}
	side.ViolationSeconds = total
	side.TransferViolationSeconds = xferTotal
	side.StructuralBreaches = inv.StructuralCount()
	return side
}

// RunMigration executes the study.
func RunMigration(opts MigrationOptions) MigrationResult {
	g := migrationWorkload(opts)
	res := MigrationResult{Nodes: opts.Nodes, VMs: g.Cfg.NumVMs(), Racks: opts.Racks}
	for _, n := range g.Cfg.Nodes() {
		if nic := n.Capacity.Get(resources.NetBW); nic == migrationNICPoorNet {
			res.PoorNodes++
		}
	}
	variants := []struct {
		name   string
		fenced bool
	}{{"open", false}}
	if opts.FencedVariant {
		variants = append(variants, struct {
			name   string
			fenced bool
		}{"fenced", true})
	}
	for _, v := range variants {
		res.Variants = append(res.Variants, MigrationVariant{
			Name:  v.name,
			Blind: runMigrationSide(opts, "blind", true, v.fenced),
			Aware: runMigrationSide(opts, "aware", false, v.fenced),
		})
	}
	return res
}

// MigrationTable renders the study.
func MigrationTable(r MigrationResult) string {
	var b strings.Builder
	b.WriteString("Bandwidth-aware context switches: transfer-blind vs transfer-aware planner\n")
	fmt.Fprintf(&b, "%d nodes (%d NIC-poor), %d VMs, %d racks\n", r.Nodes, r.PoorNodes, r.VMs, r.Racks)
	fmt.Fprintf(&b, "%-7s %-6s | %8s %9s %6s %8s %9s %9s | %10s %12s %7s\n",
		"variant", "model", "solve_ms", "cost", "pools", "makespan", "viol_sec", "xfer_sec", "transfers", "cross_rack", "wire10x")
	for _, v := range r.Variants {
		for _, s := range []MigrationSide{v.Blind, v.Aware} {
			if s.Err != "" {
				fmt.Fprintf(&b, "%-7s %-6s | FAILED: %s\n", v.Name, s.Model, s.Err)
				continue
			}
			fmt.Fprintf(&b, "%-7s %-6s | %8.0f %9d %6d %7.0fs %9.1f %9.1f | %10d %12d %7d\n",
				v.Name, s.Model, s.SolveMS, s.Cost, s.Pools, s.MakespanS, s.ViolationSeconds,
				s.TransferViolationSeconds, s.Transfers, s.CrossRack, s.WireCost10x)
		}
	}
	return b.String()
}

// MigrationCSV renders the study for external plotting. Failed cells
// keep their solve time but leave the result columns empty.
func MigrationCSV(r MigrationResult) string {
	var b strings.Builder
	b.WriteString("variant,model,ok,solve_ms,cost,pools,actions,transfers,cross_rack,wire_cost_10x,makespan_s,violation_seconds,transfer_violation_seconds,failed_actions,structural_breaches\n")
	for _, v := range r.Variants {
		for _, s := range []MigrationSide{v.Blind, v.Aware} {
			if s.Err != "" {
				fmt.Fprintf(&b, "%s,%s,false,%.1f,,,,,,,,,,,\n", v.Name, s.Model, s.SolveMS)
				continue
			}
			fmt.Fprintf(&b, "%s,%s,true,%.1f,%d,%d,%d,%d,%d,%d,%.1f,%.1f,%.1f,%d,%d\n",
				v.Name, s.Model, s.SolveMS, s.Cost, s.Pools, s.Actions, s.Transfers,
				s.CrossRack, s.WireCost10x, s.MakespanS, s.ViolationSeconds,
				s.TransferViolationSeconds, s.FailedActions, s.StructuralBreaches)
		}
	}
	return b.String()
}
