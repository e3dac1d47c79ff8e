// Package monitor is the Ganglia substitute: it periodically samples
// the simulated cluster's resource usage — the CPU and memory demands
// of the running VMs against the total capacities — and the vjob state
// mix, producing the time series behind Figure 13.
package monitor

import (
	"cwcs/internal/resources"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// Sample is one observation of the cluster.
type Sample struct {
	// T is the virtual time of the observation, in seconds.
	T float64
	// UsedCPU / CapCPU are the processing units demanded by running
	// VMs and the cluster capacity.
	UsedCPU, CapCPU int
	// UsedMem / CapMem are memory (MiB) demanded vs. capacity.
	UsedMem, CapMem int
	// Running, Sleeping, Waiting count VMs per state.
	Running, Sleeping, Waiting int
}

// CPUPercent returns CPU utilization in percent.
func (s Sample) CPUPercent() float64 {
	if s.CapCPU == 0 {
		return 0
	}
	return 100 * float64(s.UsedCPU) / float64(s.CapCPU)
}

// MemGiB returns used memory in GiB, the unit of Figure 13a.
func (s Sample) MemGiB() float64 { return float64(s.UsedMem) / 1024 }

// Recorder samples a cluster every 10 virtual seconds, the paper's
// monitoring refresh.
type Recorder struct {
	// Samples accumulates observations in time order.
	Samples []Sample

	stopped bool
}

// Observe takes one sample of the configuration right now.
func Observe(t float64, cfg *vjob.Configuration) Sample {
	s := Sample{T: t}
	usage := cfg.AppendUsage(make([]resources.Vector, 0, cfg.NumNodes()))
	for i, n := range cfg.Nodes() {
		s.CapCPU += n.CPU()
		s.CapMem += n.Memory()
		used := usage[i]
		s.UsedCPU += used.Get(resources.CPU)
		s.UsedMem += used.Get(resources.Memory)
	}
	s.Running = len(cfg.InState(vjob.Running))
	s.Sleeping = len(cfg.InState(vjob.Sleeping))
	s.Waiting = len(cfg.InState(vjob.Waiting))
	return s
}

// Attach starts periodic sampling on the cluster until Stop is called.
func (r *Recorder) Attach(c *sim.Cluster) {
	var tick func()
	tick = func() {
		if r.stopped {
			return
		}
		r.Samples = append(r.Samples, Observe(c.Now(), c.Config()))
		c.Schedule(c.Now()+sampleInterval, tick)
	}
	tick()
}

// Stop ends the sampling (the pending tick becomes a no-op).
func (r *Recorder) Stop() { r.stopped = true }
