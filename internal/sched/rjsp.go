// Package sched provides the decision modules of the paper: the sample
// FCFS dynamic-consolidation module that solves the Running Job
// Selection Problem (§3.2, Figure 6), the static FCFS allocator of the
// §5.2 baseline (strict queue order, one booked processing unit per
// VM), the Terminator wrapper that stops a vjob once its application
// has finished, and a small batch-scheduling model (FCFS, EASY
// backfilling, EASY + preemption) that regenerates the Figure 1
// schematic.
package sched

import (
	"sort"

	"cwcs/internal/packing"
	"cwcs/internal/vjob"
)

// SortQueue orders vjobs by priority (ascending: earlier submissions
// first), breaking ties by submission time then name — the FCFS queue
// of §3.2.
func SortQueue(queue []*vjob.VJob) []*vjob.VJob {
	out := append([]*vjob.VJob(nil), queue...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority < out[j].Priority
		}
		if out[i].Submitted != out[j].Submitted {
			return out[i].Submitted < out[j].Submitted
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Consolidation is the sample decision module of §3.2: every round it
// walks the whole FCFS queue and selects the maximum prefix-priority
// set of vjobs that can run simultaneously, using First-Fit-Decrease
// to test each candidate against a hypothetical configuration. Running
// vjobs that no longer fit are sent to Sleeping; ready vjobs that now
// fit are selected for Running. The placement is hypothetical — the
// optimizer recomputes the real one — only the states matter here.
type Consolidation struct{}

// Decide returns the target state for every vjob in the queue. One
// First-Fit state serves the whole queue: a vjob that fits keeps its
// placements, one that does not leaves the state as it found it.
func (Consolidation) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	target := make(map[string]vjob.State, len(queue))
	ff := packing.NewFirstFit(cfg.Nodes())
	for _, j := range SortQueue(queue) {
		cur := cfg.VJobState(j)
		if cur == vjob.Terminated {
			continue
		}
		if ff.Pack(j.VMs) {
			target[j.Name] = vjob.Running
			continue
		}
		// Cannot run this round: running and sleeping vjobs sleep,
		// waiting vjobs keep waiting.
		if cur == vjob.Running || cur == vjob.Sleeping {
			target[j.Name] = vjob.Sleeping
		} else {
			target[j.Name] = vjob.Waiting
		}
	}
	return target
}

// StaticFCFS is the baseline of §5.2: vjobs are started in strict FCFS
// order when (and only when) all their VMs fit — the scan stops at the
// first vjob that does not — and once running they are never
// preempted.
//
// Every VM counts as one full processing unit whether or not it is
// computing right now, the realistic RMS behaviour: users book
// resources for the whole walltime. This static reservation is exactly
// the under-use the paper's dynamic consolidation recovers.
type StaticFCFS struct{}

// Decide returns the target states: running vjobs stay running,
// waiting vjobs start when they fit.
func (StaticFCFS) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	target := make(map[string]vjob.State, len(queue))
	ff := packing.NewFirstFit(cfg.Nodes())
	// Reserve resources of the already-running vjobs first: they are
	// immovable under static allocation.
	for _, j := range SortQueue(queue) {
		if cfg.VJobState(j) == vjob.Running {
			target[j.Name] = vjob.Running
			for _, v := range j.VMs {
				if h := cfg.HostOf(v.Name); h != "" {
					// Mirror the real placement so fragmentation is
					// honoured, as a static RMS would.
					ff.Reserve(h, booked(v).Demand)
				}
			}
		}
	}
	for _, j := range SortQueue(queue) {
		cur := cfg.VJobState(j)
		if cur != vjob.Waiting {
			continue
		}
		if ff.Pack(bookedJob(j).VMs) {
			target[j.Name] = vjob.Running
			continue
		}
		target[j.Name] = vjob.Waiting
		break // strict FCFS: nobody jumps the queue
	}
	return target
}

// booked returns the VM as the RMS accounts for it: one processing
// unit and its memory, for the whole walltime.
func booked(v *vjob.VM) *vjob.VM {
	return vjob.NewVM(v.Name, v.VJob, 1, v.MemoryDemand())
}

func bookedJob(j *vjob.VJob) *vjob.VJob {
	out := &vjob.VJob{Name: j.Name, Priority: j.Priority, Submitted: j.Submitted}
	for _, v := range j.VMs {
		out.VMs = append(out.VMs, booked(v))
	}
	return out
}
