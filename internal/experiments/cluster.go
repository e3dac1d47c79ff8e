// Package experiments regenerates every table and figure of the
// paper's evaluation on top of the simulator: the Figure 1 backfilling
// schematic, the Table 1 cost model, the Figure 3 action-duration
// study, the Figure 10 FFD-vs-Entropy scalability comparison, and the
// Figure 11/12/13 cluster experiment (8 vjobs × 9 VMs on 11 nodes)
// under both the static FCFS baseline and Entropy's dynamic
// consolidation, plus this repo's partition, churn, drain,
// multi-resource, migration and chaos studies. cmd/experiments
// and the root benchmarks are thin wrappers over this package.
//
// A study describes its scenario with the type of the layer that runs
// it. The loop studies (cluster, churn, drain, chaos)
// take a testbed.Options; each Run function overwrites the fields its
// study fixes, says which in its doc, and passes the rest as given.
// The solve studies (Fig. 10, partition, multi-resource, migration)
// carry a core.Optimizer for every solve they make.
package experiments

import (
	"time"

	"cwcs/internal/core"
	"cwcs/internal/monitor"
	"cwcs/internal/testbed"
	"cwcs/internal/trace"
	"cwcs/internal/vjob"
)

// DefaultClusterOptions returns the paper's §5.2 setup: 11 working
// nodes with one dual-core CPU and 4 GiB of RAM of which 512 MiB goes
// to Domain-0 (22 processing units, 3584 MiB), 8 vjobs × 9 VMs of
// 512–2048 MiB, a control loop every 30 s. Virtual execution is
// decoupled from solver wall time, so a small real budget works; the
// FCFS baseline sets Optimizer.PinRunning, as a static RMS never
// migrates.
func DefaultClusterOptions() testbed.Options {
	return testbed.Options{
		Nodes: 11, NodeCPU: 2, NodeMemory: 3584,
		PaperNames: true,
		VJobs:      8, VMsPerVJob: 9,
		WorkScale:    1.0,
		MemoryFloor:  512,
		Interval:     30,
		Optimizer:    core.Optimizer{Timeout: 3 * time.Second},
		StopWhenDone: true,
		Horizon:      100_000,
		Seed:         42,
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
// module and returns the measurements. It fixes Decision and runs
// every other field of o as given.
func RunCluster(decision core.DecisionModule, o testbed.Options) ClusterResult {
	o.Decision = decision
	tb := testbed.New(o)
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

	res.Summary = tb.Run()
	res.Samples = rec.Samples
	if res.Completion == 0 {
		res.Completion = c.Now() // horizon hit
	}
	return res
}
