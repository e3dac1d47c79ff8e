package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/sched"
	"cwcs/internal/workload"
)

// PartitionOptions parameterizes the partitioned-vs-monolithic scaling
// study (no paper analogue: the paper's 200-node study is the size the
// monolithic model tops out at; partitioning is this repo's lever past
// it — see DESIGN.md §5).
type PartitionOptions struct {
	// NodeCounts are the cluster sizes to sweep.
	NodeCounts []int
	// Optimizer solves the partitioned side (Partitions 0 = auto, one
	// partition per ~16 nodes); the monolithic side is a copy with
	// Partitions = 1, so both get the same budget.
	Optimizer core.Optimizer
	// Seed drives configuration generation.
	Seed int64
}

// partitionVMFactor is the number of VMs generated per §5.1 node.
const partitionVMFactor = 1.5

// DefaultPartitionOptions returns the full-size sweep of `experiments
// partition`: 100/500/2000 nodes at an equal per-solve budget.
func DefaultPartitionOptions() PartitionOptions {
	return PartitionOptions{
		NodeCounts: []int{100, 500, 2000},
		Optimizer:  core.Optimizer{Timeout: 2 * time.Second},
		Seed:       1,
	}
}

// PartitionRow is one cluster size of the study: the same
// reconfiguration problem solved monolithically and partitioned, under
// the same budget.
type PartitionRow struct {
	Nodes, VMs int
	// MonoMS / PartMS are the solve wall-clock times in milliseconds.
	MonoMS, PartMS float64
	// MonoCost / PartCost are the §4.2 plan costs.
	MonoCost, PartCost int
	// MonoOptimal / PartOptimal report whether the solve proved its
	// model optimal within the budget (for the partitioned side: every
	// partition proved its slice).
	MonoOptimal, PartOptimal bool
	// MonoErr / PartErr record a failed solve (empty on success); a
	// failed side keeps cost 0, which would otherwise read as a
	// perfect plan in the exported data.
	MonoErr, PartErr string
	// Partitions is the effective partition count of the partitioned
	// run.
	Partitions int
	// Speedup is MonoMS / PartMS.
	Speedup float64
}

// PartitionStudy generates one consolidation problem per cluster size
// and solves it both ways.
func PartitionStudy(opts PartitionOptions) []PartitionRow {
	rng := rand.New(rand.NewSource(opts.Seed))
	rows := make([]PartitionRow, 0, len(opts.NodeCounts))
	mono := opts.Optimizer
	mono.Partitions = 1
	for _, nodes := range opts.NodeCounts {
		g := workload.GenerateConfiguration(rng, workload.GenerateOptions{
			Nodes: nodes, NodeCPU: paperNodeCPU, NodeMemory: paperNodeMemory,
			VMs: int(float64(nodes) * partitionVMFactor),
		})
		problem := core.Problem{Src: g.Cfg, Target: sched.Consolidation{}.Decide(g.Cfg, g.Jobs)}
		row := PartitionRow{Nodes: nodes, VMs: g.Cfg.NumVMs()}

		start := time.Now()
		monoRes, monoErr := mono.Solve(problem)
		row.MonoMS = float64(time.Since(start).Microseconds()) / 1000
		if monoErr != nil {
			row.MonoErr = monoErr.Error()
		} else {
			row.MonoCost, row.MonoOptimal = monoRes.Cost, monoRes.Optimal
		}

		start = time.Now()
		part, partErr := opts.Optimizer.Solve(problem)
		row.PartMS = float64(time.Since(start).Microseconds()) / 1000
		if partErr != nil {
			row.PartErr = partErr.Error()
		} else {
			row.PartCost, row.PartOptimal = part.Cost, part.Optimal
			row.Partitions = part.Partitions
			if row.Partitions == 0 {
				row.Partitions = 1
			}
		}
		if monoErr == nil && partErr == nil && row.PartMS > 0 {
			row.Speedup = row.MonoMS / row.PartMS
		}
		rows = append(rows, row)
	}
	return rows
}

// PartitionTable renders the rows.
func PartitionTable(rows []PartitionRow) string {
	var b strings.Builder
	b.WriteString("Partitioned vs monolithic solve (equal budget per side)\n")
	fmt.Fprintf(&b, "%6s %6s %6s | %10s %10s %4s | %10s %10s %4s | %8s\n",
		"nodes", "vms", "parts", "mono_ms", "mono_cost", "opt", "part_ms", "part_cost", "opt", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6d %6d | %10.0f %10s %4v | %10.0f %10s %4v | %7.1fx\n",
			r.Nodes, r.VMs, r.Partitions,
			r.MonoMS, costOrErr(r.MonoCost, r.MonoErr), r.MonoOptimal,
			r.PartMS, costOrErr(r.PartCost, r.PartErr), r.PartOptimal, r.Speedup)
		if r.MonoErr != "" {
			fmt.Fprintf(&b, "       monolithic failed: %s\n", r.MonoErr)
		}
		if r.PartErr != "" {
			fmt.Fprintf(&b, "       partitioned failed: %s\n", r.PartErr)
		}
	}
	return b.String()
}

// costOrErr renders a plan cost, or a marker when the solve failed (a
// silent 0 would read as a perfect plan).
func costOrErr(cost int, errText string) string {
	if errText != "" {
		return "FAILED"
	}
	return fmt.Sprintf("%d", cost)
}

// PartitionCSV renders the rows as CSV for external plotting. The
// mono_ok/part_ok columns flag failed solves, whose costs are 0 and
// must not be read as results.
func PartitionCSV(rows []PartitionRow) string {
	var b strings.Builder
	b.WriteString("nodes,vms,partitions,mono_ok,mono_ms,mono_cost,mono_optimal,part_ok,part_ms,part_cost,part_optimal,speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%d,%d,%v,%.1f,%d,%v,%v,%.1f,%d,%v,%.2f\n",
			r.Nodes, r.VMs, r.Partitions,
			r.MonoErr == "", r.MonoMS, r.MonoCost, r.MonoOptimal,
			r.PartErr == "", r.PartMS, r.PartCost, r.PartOptimal, r.Speedup)
	}
	return b.String()
}
