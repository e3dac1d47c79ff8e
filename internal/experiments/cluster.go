// Package experiments regenerates every table and figure of the
// paper's evaluation on top of the simulator: the Figure 1 backfilling
// schematic, the Table 1 cost model, the Figure 3 action-duration
// study, the Figure 10 FFD-vs-Entropy scalability comparison, and the
// Figure 11/12/13 cluster experiment (8 vjobs × 9 VMs on 11 nodes)
// under both the static FCFS baseline and Entropy's dynamic
// consolidation. cmd/experiments and the root benchmarks are thin
// wrappers over this package.
package experiments

import (
	"time"

	"cwcs/internal/core"
	"cwcs/internal/monitor"
	"cwcs/internal/testbed"
	"cwcs/internal/trace"
	"cwcs/internal/vjob"
)

// ClusterOptions parameterizes the §5.2 experiment.
type ClusterOptions struct {
	// Nodes, NodeCPU, NodeMemory describe the working nodes. The
	// paper uses 11 nodes with one dual-core CPU and 4 GiB of RAM of
	// which 512 MiB goes to Domain-0: 22 processing units, 3584 MiB.
	Nodes, NodeCPU, NodeMemory int
	// VJobs and VMsPerVJob shape the workload (paper: 8 × 9).
	VJobs, VMsPerVJob int
	// WorkScale multiplies workload durations; 1.0 approximates the
	// paper's run, smaller values keep tests fast.
	WorkScale float64
	// Interval is the control-loop period in seconds (paper: 30).
	Interval float64
	// Timeout bounds each optimization (virtual execution is
	// decoupled from solver wall time, so a small real budget works).
	Timeout time.Duration
	// Horizon is the simulation cut-off in seconds.
	Horizon float64
	// Seed drives workload generation.
	Seed int64
	// PinRunning forbids migrations, as a static RMS would (set it
	// for the FCFS baseline).
	PinRunning bool
	// Workers is the optimizer's portfolio width (0 = GOMAXPROCS).
	Workers int
	// Partitions is the optimizer's decomposition width (0 = auto,
	// 1 = monolithic).
	Partitions int
}

// DefaultClusterOptions returns the paper's §5.2 setup.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{
		Nodes: 11, NodeCPU: 2, NodeMemory: 3584,
		VJobs: 8, VMsPerVJob: 9,
		WorkScale: 1.0,
		Interval:  30,
		Timeout:   3 * time.Second,
		Horizon:   100_000,
		Seed:      42,
	}
}

// ClusterResult is everything the cluster experiment measures.
// Summary.Records lists every non-empty context switch (Figure 11).
type ClusterResult struct {
	testbed.Summary
	// Completion is the virtual time when the last vjob finished its
	// work (the paper's "overall duration of jobs").
	Completion float64
	// Samples is the utilization time series (Figure 13).
	Samples []monitor.Sample
	// Gantt is the per-vjob allocation diagram (Figure 12).
	Gantt *trace.Gantt
	// JobEnd is the completion instant of each vjob.
	JobEnd map[string]float64
}

// MeanSwitchDuration returns the average context-switch duration in
// seconds (the paper reports ~70 s).
func (r ClusterResult) MeanSwitchDuration() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	sum := 0.0
	for _, rec := range r.Records {
		sum += rec.Duration
	}
	return sum / float64(len(r.Records))
}

// RunCluster executes the §5.2 experiment under the given decision
// module and returns the measurements.
func RunCluster(decision core.DecisionModule, opts ClusterOptions) ClusterResult {
	tb := testbed.New(testbed.Options{
		Nodes: opts.Nodes, NodeCPU: opts.NodeCPU, NodeMemory: opts.NodeMemory,
		PaperNames: true,
		VJobs:      opts.VJobs, VMsPerVJob: opts.VMsPerVJob,
		WorkScale:    opts.WorkScale,
		MemoryFloor:  512, // the §5.2 experiment uses 512-2048 MiB VMs
		Seed:         opts.Seed,
		Decision:     decision,
		Optimizer:    core.Optimizer{Timeout: opts.Timeout, PinRunning: opts.PinRunning, Workers: opts.Workers, Partitions: opts.Partitions},
		Interval:     opts.Interval,
		StopWhenDone: true,
	})
	c, cfg := tb.Cluster, tb.Cluster.Config()
	res := ClusterResult{Gantt: trace.NewGantt(), JobEnd: map[string]float64{}}

	rec := &monitor.Recorder{}
	rec.Attach(c)

	// Sampler for the Gantt rows and per-vjob completion times.
	const ganttTick = 5.0
	var sample func()
	sample = func() {
		allDone := true
		for _, j := range tb.Jobs() {
			if cfg.VJobState(j) == vjob.Running {
				res.Gantt.Mark(j.Name, c.Now(), c.Now()+ganttTick)
			}
			if c.VJobDone(j) {
				if _, ok := res.JobEnd[j.Name]; !ok {
					res.JobEnd[j.Name] = c.Now()
				}
			} else {
				allDone = false
			}
		}
		if allDone {
			if res.Completion == 0 {
				res.Completion = c.Now()
			}
			rec.Stop()
			return
		}
		c.Schedule(c.Now()+ganttTick, sample)
	}
	sample()

	res.Summary = tb.Run(opts.Horizon)
	res.Samples = rec.Samples
	if res.Completion == 0 {
		res.Completion = c.Now() // horizon hit
	}
	return res
}
