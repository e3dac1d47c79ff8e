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
	"fmt"
	"math/rand"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/duration"
	"cwcs/internal/monitor"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/trace"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
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
type ClusterResult struct {
	// Completion is the virtual time when the last vjob finished its
	// work (the paper's "overall duration of jobs").
	Completion float64
	// Records lists every non-empty context switch (Figure 11).
	Records []core.SwitchRecord
	// Samples is the utilization time series (Figure 13).
	Samples []monitor.Sample
	// ActionCounts tallies completed actions by kind.
	ActionCounts map[string]int
	// LocalOps/RemoteOps count local vs. remote transfers.
	LocalOps, RemoteOps int
	// Gantt is the per-vjob allocation diagram (Figure 12).
	Gantt *trace.Gantt
	// JobEnd is the completion instant of each vjob.
	JobEnd map[string]float64
	// Stats is the loop telemetry; End the virtual time the run ended.
	Stats core.LoopStats
	End   float64
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
	rng := rand.New(rand.NewSource(opts.Seed))
	cfg := vjob.NewConfiguration()
	for i := 0; i < opts.Nodes; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("node%02d", i), opts.NodeCPU, opts.NodeMemory))
	}
	c := sim.New(cfg, duration.Default())

	jobs := make([]*vjob.VJob, opts.VJobs)
	for i := range jobs {
		bench := workload.Benchmarks[i%len(workload.Benchmarks)]
		// Classes A and B: multi-minute vjobs, as in the paper's runs
		// (the W class finishes before scheduling effects matter).
		class := workload.Classes[1+i%2]
		spec := workload.NewSpec(fmt.Sprintf("vjob%d", i+1), bench, class, opts.VMsPerVJob, i, rng)
		scalePhases(&spec, opts.WorkScale)
		// The §5.2 experiment uses 512-2048 MiB VMs.
		for _, v := range spec.Job.VMs {
			if v.MemoryDemand() < 512 {
				v.SetMemoryDemand(512)
			}
		}
		spec.Install(cfg, c)
		jobs[i] = spec.Job
	}

	res := ClusterResult{
		ActionCounts: map[string]int{},
		Gantt:        trace.NewGantt(),
		JobEnd:       map[string]float64{},
	}

	loop := &core.Loop{
		Decision:  sched.Terminator{Inner: decision, Finished: c.VJobDone, Jobs: func() []*vjob.VJob { return jobs }},
		Optimizer: core.Optimizer{Timeout: opts.Timeout, PinRunning: opts.PinRunning, Workers: opts.Workers, Partitions: opts.Partitions},
		Interval:  opts.Interval,
		Queue:     func() []*vjob.VJob { return jobs },
		Done: func() bool {
			// Stop once every vjob finished AND was stopped.
			for _, j := range jobs {
				if !c.VJobDone(j) {
					return false
				}
				for _, v := range j.VMs {
					if cfg.VM(v.Name) != nil {
						return false
					}
				}
			}
			return true
		},
	}

	rec := &monitor.Recorder{Interval: 10}
	rec.Attach(c)

	// Sampler for the Gantt rows and per-vjob completion times.
	const ganttTick = 5.0
	var sample func()
	sample = func() {
		allDone := true
		for _, j := range jobs {
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

	loop.Start(&drivers.Actuator{C: c})
	c.Run(opts.Horizon)

	res.Records = loop.Records
	res.Stats = loop.Stats
	res.End = c.Now()
	res.Samples = rec.Samples
	res.ActionCounts = c.ActionCounts()
	res.LocalOps, res.RemoteOps = c.TransferCounts()
	if res.Completion == 0 {
		res.Completion = c.Now() // horizon hit
	}
	return res
}

// scalePhases multiplies every phase duration of the spec.
func scalePhases(s *workload.Spec, f float64) {
	if f == 1 || f <= 0 {
		return
	}
	for _, ph := range s.Phases {
		for i := range ph {
			ph[i].Seconds *= f
		}
	}
}
