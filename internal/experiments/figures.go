package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/duration"
	"cwcs/internal/plan"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/trace"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// Fig1 replays the backfilling schematic: the same four jobs under
// strict FCFS, EASY backfilling, and EASY with preemption, rendered as
// Gantt diagrams with makespan and wasted processor time.
func Fig1() string {
	jobs := []sched.BatchJob{
		{ID: "1", Procs: 2, Runtime: 2, Estimate: 2},
		{ID: "2", Procs: 4, Runtime: 3, Estimate: 3},
		{ID: "3", Procs: 1, Runtime: 2, Estimate: 2},
		{ID: "4", Procs: 1, Runtime: 4, Estimate: 4},
	}
	const procs = 4
	var b strings.Builder
	b.WriteString("Figure 1 — backfilling limitations (4 jobs, 4 processors)\n\n")
	b.WriteString("(a->b) FCFS + EASY backfilling vs plain FCFS:\n\n")
	b.WriteString("FCFS:\n" + sched.FCFS(jobs, procs).Gantt() + "\n")
	b.WriteString("EASY backfilling:\n" + sched.EASY(jobs, procs).Gantt() + "\n")
	b.WriteString("(c) EASY backfilling + preemption (the 4th job starts sooner):\n\n")
	b.WriteString(sched.EASYPreempt(jobs, procs).Gantt())
	return b.String()
}

// Table1 renders the action cost model for a sample VM, one row per
// action, exactly the shape of Table 1.
func Table1(memMiB int) string {
	vm := vjob.NewVM("vmj", "job", 1, memMiB)
	rows := []struct {
		action string
		cost   int
	}{
		{"migrate(vmj)", (&plan.Migration{Machine: vm, Src: "n1", Dst: "n2"}).Cost()},
		{"run(vmj)", (&plan.Run{Machine: vm, On: "n1"}).Cost()},
		{"stop(vmj)", (&plan.Stop{Machine: vm, On: "n1"}).Cost()},
		{"suspend(vmj)", (&plan.Suspend{Machine: vm, On: "n1", To: "n1"}).Cost()},
		{"resume(vmj) local", (&plan.Resume{Machine: vm, From: "n1", On: "n1"}).Cost()},
		{"resume(vmj) remote", (&plan.Resume{Machine: vm, From: "n1", On: "n2"}).Cost()},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — action costs for Dm(vmj) = %d MiB\n", memMiB)
	fmt.Fprintf(&b, "%-22s %s\n", "Action", "Cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %d\n", r.action, r.cost)
	}
	return b.String()
}

// Fig3Row is one memory size of the Figure 3 study. Durations are in
// seconds, measured by executing the actions in the simulator with a
// busy 1 GiB VM co-hosted on the manipulated node, exactly like §2.3.
type Fig3Row struct {
	MemMiB                                 int
	Run, Stop, Migrate                     float64
	SuspendLocal, SuspendSCP, SuspendRsync float64
	ResumeLocal, ResumeSCP, ResumeRsync    float64
	// DecelBusy is the measured slowdown factor of the busy VM during
	// the local suspend (paper: ~1.3 local, ~1.5 remote).
	DecelBusyLocal, DecelBusyRemote float64
}

// Fig3 measures each VM context-switch operation for the paper's
// memory sizes.
func Fig3(sizes ...int) []Fig3Row {
	if len(sizes) == 0 {
		sizes = []int{512, 1024, 2048}
	}
	rows := make([]Fig3Row, 0, len(sizes))
	for _, mem := range sizes {
		r := Fig3Row{MemMiB: mem}
		r.Run = measure(mem, false, func(c *sim.Cluster, v *vjob.VM) plan.Action {
			return &plan.Run{Machine: v, On: "node"}
		})
		r.Stop = measure(mem, true, func(c *sim.Cluster, v *vjob.VM) plan.Action {
			return &plan.Stop{Machine: v, On: "node"}
		})
		r.Migrate = measure(mem, true, func(c *sim.Cluster, v *vjob.VM) plan.Action {
			return &plan.Migration{Machine: v, Src: "node", Dst: "peer"}
		})
		r.SuspendLocal = measure(mem, true, func(c *sim.Cluster, v *vjob.VM) plan.Action {
			return &plan.Suspend{Machine: v, On: "node", To: "node"}
		})
		r.SuspendSCP = measure(mem, true, func(c *sim.Cluster, v *vjob.VM) plan.Action {
			return &plan.Suspend{Machine: v, On: "node", To: "peer"}
		})
		r.ResumeLocal = measureResume(mem, true)
		r.ResumeSCP = measureResume(mem, false)
		// rsync transfers through the model directly (the simulator's
		// remote path models scp, the paper's default).
		m := duration.Default()
		r.SuspendRsync = m.Suspend(mem, duration.Rsync).Seconds()
		r.ResumeRsync = m.Resume(mem, duration.Rsync).Seconds()
		r.DecelBusyLocal = measureDecel(mem, false)
		r.DecelBusyRemote = measureDecel(mem, true)
		rows = append(rows, r)
	}
	return rows
}

// fig3Cluster builds the two-node §2.3 testbed with a busy stress VM.
func fig3Cluster(mem int, running bool) (*sim.Cluster, *vjob.VM) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("node", 2, 8192))
	cfg.AddNode(vjob.NewNode("peer", 2, 8192))
	busy := vjob.NewVM("busy", "stress", 1, 1024)
	cfg.AddVM(busy)
	_ = cfg.SetRunning("busy", "node")
	c := sim.New(cfg, duration.Default())
	c.SetWorkload("busy", []sim.Phase{{CPU: 1, Seconds: 1e9}})
	v := vjob.NewVM("victim", "probe", 1, mem)
	cfg.AddVM(v)
	if running {
		_ = cfg.SetRunning("victim", "node")
	}
	return c, v
}

func measure(mem int, running bool, mk func(*sim.Cluster, *vjob.VM) plan.Action) float64 {
	c, v := fig3Cluster(mem, running)
	done := -1.0
	c.StartAction(mk(c, v), func(error) { done = c.Now() })
	c.Run(1e6)
	return done
}

func measureResume(mem int, local bool) float64 {
	c, v := fig3Cluster(mem, false)
	_ = c.Config().SetSleeping("victim", "node")
	on := "node"
	if !local {
		on = "peer"
	}
	done := -1.0
	c.StartAction(&plan.Resume{Machine: v, From: "node", On: on}, func(error) { done = c.Now() })
	c.Run(1e6)
	return done
}

// measureDecel measures the busy VM's slowdown during a suspend.
func measureDecel(mem int, remote bool) float64 {
	c, v := fig3Cluster(mem, true)
	to := "node"
	if remote {
		to = "peer"
	}
	factor := 0.0
	c.StartAction(&plan.Suspend{Machine: v, On: "node", To: to}, func(error) {
		// Slowdown = elapsed wall time / work actually performed,
		// both measured over exactly the operation window.
		if progressed := 1e9 - c.RemainingWork("busy"); progressed > 0 {
			factor = c.Now() / progressed
		}
	})
	c.Run(1e6)
	return factor
}

// Fig3Table renders the rows.
func Fig3Table(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3 — duration of each VM context switch (seconds) vs. memory\n")
	fmt.Fprintf(&b, "%6s %6s %6s %8s | %8s %8s %8s | %8s %8s %8s | %6s %6s\n",
		"mem", "run", "stop", "migrate", "sus-loc", "sus-scp", "sus-rsy", "res-loc", "res-scp", "res-rsy", "dec-l", "dec-r")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6.1f %6.1f %8.1f | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f | %6.2f %6.2f\n",
			r.MemMiB, r.Run, r.Stop, r.Migrate,
			r.SuspendLocal, r.SuspendSCP, r.SuspendRsync,
			r.ResumeLocal, r.ResumeSCP, r.ResumeRsync,
			r.DecelBusyLocal, r.DecelBusyRemote)
	}
	return b.String()
}

// The §5.1 node: 2 CPUs and 4 GiB. Every study that generates its
// cluster builds it of these nodes.
const (
	paperNodeCPU    = 2
	paperNodeMemory = 4096
)

// fig10Nodes is the size of the §5.1 cluster every Figure 10 sample is
// generated on.
const fig10Nodes = 200

// Fig10Options parameterizes the scalability study.
type Fig10Options struct {
	// VMCounts are the x-axis points (paper: 54..486 step 54).
	VMCounts []int
	// Samples per count (paper: 30).
	Samples int
	// Optimizer solves every sample (paper: a 40 s Timeout, one
	// monolithic model).
	Optimizer core.Optimizer
	// Seed makes the study reproducible.
	Seed int64
}

// DefaultFig10Options returns the paper's parameters.
// Optimizer.Partitions is pinned to 1: the published figure measures the monolithic model (the
// partitioned solve is this repo's extension, measured by the
// PartitionStudy instead).
func DefaultFig10Options() Fig10Options {
	return Fig10Options{
		VMCounts:  []int{54, 108, 162, 216, 270, 324, 378, 432, 486},
		Samples:   30,
		Optimizer: core.Optimizer{Timeout: 40 * time.Second, Partitions: 1},
		Seed:      1,
	}
}

// Fig10Row aggregates one VM count.
type Fig10Row struct {
	VMs                  int
	Samples              int
	FFDMean, EntropyMean float64
	// ReductionPct is how much cheaper Entropy's plans are (paper:
	// ~95% on average).
	ReductionPct float64
}

// Fig10 runs the §5.1 study: for each configuration sample, the RJSP
// decision is computed once, then the FFD heuristic and the Entropy
// optimizer plan the same reconfiguration; their §4.2 plan costs are
// compared.
func Fig10(opts Fig10Options) []Fig10Row {
	rng := rand.New(rand.NewSource(opts.Seed))
	rows := make([]Fig10Row, 0, len(opts.VMCounts))
	for _, n := range opts.VMCounts {
		row := Fig10Row{VMs: n}
		var ffdSum, entSum float64
		for s := 0; s < opts.Samples; s++ {
			g := workload.GenerateConfiguration(rng, workload.GenerateOptions{
				Nodes: fig10Nodes, NodeCPU: paperNodeCPU, NodeMemory: paperNodeMemory, VMs: n,
			})
			target := sched.Consolidation{}.Decide(g.Cfg, g.Jobs)
			problem := core.Problem{Src: g.Cfg, Target: target}
			ffd, err1 := core.FFDPlan(problem)
			ent, err2 := opts.Optimizer.Solve(problem)
			if err1 != nil || err2 != nil {
				continue
			}
			row.Samples++
			ffdSum += float64(ffd.Cost)
			entSum += float64(ent.Cost)
		}
		if row.Samples > 0 {
			row.FFDMean = ffdSum / float64(row.Samples)
			row.EntropyMean = entSum / float64(row.Samples)
			if row.FFDMean > 0 {
				row.ReductionPct = 100 * (1 - row.EntropyMean/row.FFDMean)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig10Table renders the rows plus an ASCII plot of both series.
func Fig10Table(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Figure 10 — reconfiguration cost, 200-node configurations\n")
	fmt.Fprintf(&b, "%6s %8s %14s %14s %10s\n", "VMs", "samples", "FFD mean", "Entropy mean", "reduction")
	p := trace.NewPlot("reconfiguration cost vs #VMs", "VMs", "cost")
	ffd := p.AddSeries("First Fit Decrease")
	ent := p.AddSeries("Entropy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %8d %14.0f %14.0f %9.1f%%\n", r.VMs, r.Samples, r.FFDMean, r.EntropyMean, r.ReductionPct)
		ffd.Add(float64(r.VMs), r.FFDMean)
		ent.Add(float64(r.VMs), r.EntropyMean)
	}
	b.WriteString("\n")
	b.WriteString(p.Render(60, 14))
	return b.String()
}

// Fig11Table renders the cost/duration scatter of the context switches
// of a cluster run.
func Fig11Table(res ClusterResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — cost and duration of the %d cluster-wide context switches\n", len(res.Records))
	fmt.Fprintf(&b, "%10s %12s %8s %6s\n", "cost", "duration_s", "actions", "pools")
	p := trace.NewPlot("context-switch duration vs cost", "cost", "seconds")
	s := p.AddSeries("switches")
	for _, r := range res.Records {
		fmt.Fprintf(&b, "%10d %12.1f %8d %6d\n", r.Cost, r.Duration, r.Actions, r.Pools)
		s.Add(float64(r.Cost), r.Duration)
	}
	fmt.Fprintf(&b, "mean duration: %.1f s\n\n", res.MeanSwitchDuration())
	b.WriteString(p.Render(60, 12))
	return b.String()
}

// Fig13Table compares the utilization series and completion times of
// the FCFS baseline and the Entropy run.
func Fig13Table(fcfs, entropy ClusterResult) string {
	var b strings.Builder
	b.WriteString("Figure 13 — resource utilization, Entropy vs FCFS\n\n")
	mem := trace.NewPlot("(a) memory utilization", "time (s)", "GiB")
	cpu := trace.NewPlot("(b) CPU utilization", "time (s)", "%")
	em := mem.AddSeries("Entropy")
	fm := mem.AddSeries("FCFS")
	ec := cpu.AddSeries("Entropy")
	fc := cpu.AddSeries("FCFS")
	for _, s := range entropy.Samples {
		em.Add(s.T, s.MemGiB())
		ec.Add(s.T, s.CPUPercent())
	}
	for _, s := range fcfs.Samples {
		fm.Add(s.T, s.MemGiB())
		fc.Add(s.T, s.CPUPercent())
	}
	b.WriteString(mem.Render(64, 12))
	b.WriteString("\n")
	b.WriteString(cpu.Render(64, 12))
	fmt.Fprintf(&b, "\nglobal completion: FCFS %.0f s (%.1f min), Entropy %.0f s (%.1f min), reduction %.0f%%\n",
		fcfs.Completion, fcfs.Completion/60, entropy.Completion, entropy.Completion/60,
		100*(1-entropy.Completion/fcfs.Completion))
	fmt.Fprintf(&b, "mean context-switch duration (Entropy): %.0f s\n", entropy.MeanSwitchDuration())
	fmt.Fprintf(&b, "transfers (Entropy): %d local, %d remote\n", entropy.LocalOps, entropy.RemoteOps)
	return b.String()
}
