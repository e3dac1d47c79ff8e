// Package cwcs's root benchmarks regenerate every table and figure of
// the paper's evaluation (see DESIGN.md §3 for the experiment index).
// Benchmarks run reduced workloads by default so `go test -bench=.`
// finishes in minutes; cmd/experiments reproduces the full-scale
// sweeps.
package cwcs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/experiments"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/sched"
	"cwcs/internal/testbed"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// BenchmarkFig1Backfilling regenerates the Figure 1 schematic: the
// three batch policies over the 4-job workload.
func BenchmarkFig1Backfilling(b *testing.B) {
	jobs := []sched.BatchJob{
		{ID: "1", Procs: 2, Runtime: 2, Estimate: 2},
		{ID: "2", Procs: 4, Runtime: 3, Estimate: 3},
		{ID: "3", Procs: 1, Runtime: 2, Estimate: 2},
		{ID: "4", Procs: 1, Runtime: 4, Estimate: 4},
	}
	var fcfs, easy, pre sched.Schedule
	for i := 0; i < b.N; i++ {
		fcfs = sched.FCFS(jobs, 4)
		easy = sched.EASY(jobs, 4)
		pre = sched.EASYPreempt(jobs, 4)
	}
	b.ReportMetric(float64(fcfs.Makespan), "fcfs-makespan")
	b.ReportMetric(float64(easy.Makespan), "easy-makespan")
	b.ReportMetric(float64(pre.Makespan), "preempt-makespan")
}

// BenchmarkTable1CostModel evaluates the §4.2 plan-cost aggregation
// over a synthetic 200-action plan.
func BenchmarkTable1CostModel(b *testing.B) {
	var pools []plan.Pool
	for p := 0; p < 20; p++ {
		var pool plan.Pool
		for a := 0; a < 10; a++ {
			vm := vjob.NewVM(fmt.Sprintf("vm%d-%d", p, a), "j", 1, 256*(1+a%8))
			pool = append(pool, &plan.Migration{Machine: vm, Src: "n1", Dst: "n2"})
		}
		pools = append(pools, pool)
	}
	pl := &plan.Plan{Pools: pools}
	cost := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost = pl.Cost()
	}
	b.ReportMetric(float64(cost), "plan-cost")
}

// BenchmarkFig3Durations measures the per-action duration study of
// §2.3 (run/stop/migrate/suspend/resume across memory sizes) through
// the simulator.
func BenchmarkFig3Durations(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig3(512, 1024, 2048)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Migrate, "migrate-2GiB-s")
	b.ReportMetric(last.ResumeSCP, "remote-resume-2GiB-s")
}

// BenchmarkFig10EntropyVsFFD compares the reconfiguration-plan costs
// of the FFD heuristic and the CP optimizer on generated 200-node
// configurations, one sub-benchmark per VM count (the Figure 10
// x-axis, thinned).
func BenchmarkFig10EntropyVsFFD(b *testing.B) {
	for _, vms := range []int{54, 162, 270} {
		b.Run(fmt.Sprintf("vms=%d", vms), func(b *testing.B) {
			var row experiments.Fig10Row
			for i := 0; i < b.N; i++ {
				rows := experiments.Fig10(experiments.Fig10Options{
					VMCounts: []int{vms},
					Samples:  1,
					// The published figure is monolithic.
					Optimizer: core.Optimizer{Timeout: 2 * time.Second, Partitions: 1},
					Seed:      int64(i + 1),
				})
				row = rows[0]
			}
			b.ReportMetric(row.FFDMean, "ffd-cost")
			b.ReportMetric(row.EntropyMean, "entropy-cost")
			b.ReportMetric(row.ReductionPct, "reduction-%")
		})
	}
}

// fig11Problem builds one reconfiguration of the §5.2 cluster: the 11
// nodes host a partially-placed 8×9 workload and the consolidation
// module decides the target states.
func fig11Problem(seed int64) core.Problem {
	rng := rand.New(rand.NewSource(seed))
	cfg := vjob.NewConfiguration()
	for i := 0; i < 11; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("node%02d", i), 2, 3584))
	}
	var jobs []*vjob.VJob
	for i := 0; i < 8; i++ {
		spec := workload.NewSpec(fmt.Sprintf("vjob%d", i+1),
			workload.Benchmarks[i%4], workload.A, 9, i, rng)
		running := i < 4
		for _, v := range spec.Job.VMs {
			// The placed vjobs are all computing: with four 9-CPU
			// gangs on 22 processing units the cluster starts
			// overloaded (the paper's 29-vs-22 situation), so the
			// context switch has real work to do.
			if running || rng.Float64() < 0.5 {
				v.SetCPUDemand(1)
			} else {
				v.SetCPUDemand(0)
			}
			cfg.AddVM(v)
		}
		jobs = append(jobs, spec.Job)
		if running { // placed by memory only, CPU over-committed
			for _, v := range spec.Job.VMs {
				for _, n := range cfg.Nodes() {
					if cfg.Free(n.Name).Get(resources.Memory) >= v.MemoryDemand() {
						_ = cfg.SetRunning(v.Name, n.Name)
						break
					}
				}
			}
		}
	}
	return core.Problem{Src: cfg, Target: sched.Consolidation{}.Decide(cfg, jobs)}
}

// BenchmarkFig11ContextSwitch times one full context-switch
// computation (decision already made): CP optimization plus plan
// construction for the 11-node cluster.
func BenchmarkFig11ContextSwitch(b *testing.B) {
	var res *core.Result
	for i := 0; i < b.N; i++ {
		p := fig11Problem(int64(i + 1))
		r, err := core.Optimizer{Timeout: 2 * time.Second, Workers: 1}.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.Cost), "plan-cost")
	b.ReportMetric(float64(res.Plan.NumActions()), "actions")
}

// benchClusterOpts is the reduced §5.2 configuration used by the
// fig12/fig13 benches.
func benchClusterOpts() testbed.Options {
	o := experiments.DefaultClusterOptions()
	o.WorkScale = 0.5
	o.Optimizer.Timeout = time.Second
	o.Optimizer.Workers = 1 // sequential: keep figures comparable across hosts
	return o
}

// BenchmarkFig12FCFS runs the full static-FCFS cluster experiment and
// reports its completion time (the Figure 12 allocation diagram's
// horizon).
func BenchmarkFig12FCFS(b *testing.B) {
	var res experiments.ClusterResult
	for i := 0; i < b.N; i++ {
		o := benchClusterOpts()
		o.Optimizer.PinRunning = true
		res = experiments.RunCluster(sched.StaticFCFS{}, o)
	}
	b.ReportMetric(res.Completion, "completion-s")
}

// BenchmarkFig13Consolidation runs the full Entropy cluster experiment
// and reports the headline comparison metrics: completion time, mean
// switch duration, and the local-resume ratio.
func BenchmarkFig13Consolidation(b *testing.B) {
	var res experiments.ClusterResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunCluster(sched.Consolidation{}, benchClusterOpts())
	}
	b.ReportMetric(res.Completion, "completion-s")
	b.ReportMetric(res.MeanSwitchDuration(), "mean-switch-s")
	b.ReportMetric(float64(len(res.Records)), "switches")
}

// --- Portfolio scaling (DESIGN.md §2) ---

// BenchmarkPortfolioWorkers races the parallel portfolio against the
// sequential search on the §5.1-style context-switch instance of
// BenchmarkFig11ContextSwitch: one sub-benchmark per worker count. On
// multi-core hardware the wider portfolios finish the optimality proof
// in less wall-clock time (or find an equally cheap plan within the
// same budget); on a single core they fall back to time-slicing the
// same search effort.
func BenchmarkPortfolioWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchOptimizer(b, core.Optimizer{Timeout: 2 * time.Second, Workers: workers})
		})
	}
}

// BenchmarkPortfolioWorkersSpread scales the worker count over several
// §5.1-style instances, so the scaling numbers are not tied to one
// seed.
func BenchmarkPortfolioWorkersSpread(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *core.Result
			solved := 0
			for i := 0; i < b.N; i++ {
				r, err := core.Optimizer{Timeout: 2 * time.Second, Workers: workers}.Solve(fig11Problem(int64(i%5 + 1)))
				if err != nil {
					continue
				}
				solved++
				res = r
			}
			b.ReportMetric(float64(solved)/float64(b.N), "solved-ratio")
			if res != nil {
				b.ReportMetric(float64(res.Cost), "plan-cost")
				b.ReportMetric(float64(res.Nodes), "search-nodes")
			}
		})
	}
}

// --- Partitioned decomposition (DESIGN.md §5) ---

// BenchmarkPartitionedSolve compares the monolithic model with the
// partitioned decomposition on synthetic clusters of 100/500/2000
// nodes, at an equal per-solve budget (BENCH_partition.json records a
// run). The partitioned side usually returns long before the budget —
// every slice proves optimality — while the monolithic search burns the
// whole budget on the larger instances without a proof.
func BenchmarkPartitionedSolve(b *testing.B) {
	for _, nodes := range []int{100, 500, 2000} {
		rng := rand.New(rand.NewSource(1))
		g := workload.GenerateConfiguration(rng, workload.GenerateOptions{
			Nodes: nodes, NodeCPU: 2, NodeMemory: 4096, VMs: nodes * 3 / 2,
		})
		problem := core.Problem{Src: g.Cfg, Target: sched.Consolidation{}.Decide(g.Cfg, g.Jobs)}
		for _, mode := range []struct {
			name  string
			parts int
		}{{"monolithic", 1}, {"partitioned", 0}} {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, mode.name), func(b *testing.B) {
				var res *core.Result
				for i := 0; i < b.N; i++ {
					r, err := core.Optimizer{Timeout: 2 * time.Second, Workers: 1, Partitions: mode.parts}.Solve(problem)
					if err != nil {
						b.Fatal(err)
					}
					res = r
				}
				b.ReportMetric(float64(res.Cost), "plan-cost")
				b.ReportMetric(float64(res.Partitions), "partitions")
				b.ReportMetric(boolMetric(res.Optimal), "optimal")
			})
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// benchOptimizer solves the fig11 instance b.N times under o and
// reports the share solved within the budget, the last plan's cost and
// its search nodes.
func benchOptimizer(b *testing.B, o core.Optimizer) {
	var res *core.Result
	solved := 0
	for i := 0; i < b.N; i++ {
		r, err := o.Solve(fig11Problem(7))
		if err != nil {
			// A budget too small to solve within is a finding of the
			// comparison: record it rather than aborting.
			continue
		}
		solved++
		res = r
	}
	b.ReportMetric(float64(solved)/float64(b.N), "solved-ratio")
	if res != nil {
		b.ReportMetric(float64(res.Cost), "plan-cost")
		b.ReportMetric(float64(res.Nodes), "search-nodes")
	}
}
