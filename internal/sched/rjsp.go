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
	"cmp"
	"slices"
	"strings"
	"sync"

	"cwcs/internal/packing"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// SortQueue appends the queue to dst ordered by priority (ascending:
// earlier submissions first), breaking ties by submission time then
// name — the FCFS queue of §3.2 — and returns the extended dst.
func SortQueue(dst, queue []*vjob.VJob) []*vjob.VJob {
	n := len(dst)
	dst = append(dst, queue...)
	slices.SortStableFunc(dst[n:], func(a, b *vjob.VJob) int {
		return cmp.Or(cmp.Compare(a.Priority, b.Priority), cmp.Compare(a.Submitted, b.Submitted), strings.Compare(a.Name, b.Name))
	})
	return dst
}

// scratch is the storage of one Decide: the First-Fit state, the nodes
// it packs, the sorted queue and a vjob's booked VMs. A Decide leaves
// it idle cleared, holding nothing of what it decided on.
type scratch struct {
	ff     packing.FirstFit
	nodes  []*vjob.Node
	queue  []*vjob.VJob
	booked []vjob.VM
	vms    []*vjob.VM
}

// idle holds the scratch of the last Decide; a concurrent one builds its own.
var idle struct {
	sync.Mutex
	sc *scratch
}

// takeScratch returns a scratch holding an empty First-Fit state of
// cfg's nodes and the queue in FCFS order.
func takeScratch(cfg *vjob.Configuration, queue []*vjob.VJob) *scratch {
	idle.Lock()
	sc := idle.sc
	idle.sc = nil
	idle.Unlock()
	if sc == nil {
		sc = new(scratch)
	}
	sc.nodes = cfg.AppendNodes(sc.nodes[:0])
	sc.ff.Reset(sc.nodes)
	sc.queue = SortQueue(sc.queue[:0], queue)
	return sc
}

// release clears sc and leaves it to takeScratch.
func (sc *scratch) release() {
	sc.ff.Reset(nil)
	clear(sc.nodes[:cap(sc.nodes)])
	clear(sc.queue[:cap(sc.queue)])
	clear(sc.booked[:cap(sc.booked)]) // vms point into booked
	idle.Lock()
	idle.sc = sc
	idle.Unlock()
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
	sc := takeScratch(cfg, queue)
	defer sc.release()
	for _, j := range sc.queue {
		cur := cfg.VJobState(j)
		if cur == vjob.Terminated {
			continue
		}
		if sc.ff.Pack(j.VMs) {
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
	sc := takeScratch(cfg, queue)
	defer sc.release()
	// Reserve resources of the already-running vjobs first: they are
	// immovable under static allocation.
	for _, j := range sc.queue {
		if cfg.VJobState(j) == vjob.Running {
			target[j.Name] = vjob.Running
			for _, v := range j.VMs {
				if h := cfg.HostOf(v.Name); h != "" {
					// Mirror the real placement so fragmentation is
					// honoured, as a static RMS would.
					sc.ff.Reserve(h, bookedDemand(v))
				}
			}
		}
	}
	for _, j := range sc.queue {
		cur := cfg.VJobState(j)
		if cur != vjob.Waiting {
			continue
		}
		if sc.ff.Pack(sc.bookedVMs(j)) {
			target[j.Name] = vjob.Running
			continue
		}
		target[j.Name] = vjob.Waiting
		break // strict FCFS: nobody jumps the queue
	}
	return target
}

// bookedDemand is a VM's RMS booking: a processing unit and its memory.
func bookedDemand(v *vjob.VM) resources.Vector { return resources.New(1, v.MemoryDemand()) }

// bookedVMs returns j's VMs as the RMS accounts for them, in sc's
// storage.
func (sc *scratch) bookedVMs(j *vjob.VJob) []*vjob.VM {
	sc.booked, sc.vms = slices.Grow(sc.booked[:0], len(j.VMs)), sc.vms[:0] // no append moves booked
	for _, v := range j.VMs {
		sc.booked = append(sc.booked, vjob.VM{Name: v.Name, VJob: v.VJob, Demand: bookedDemand(v)})
		sc.vms = append(sc.vms, &sc.booked[len(sc.booked)-1])
	}
	return sc.vms
}
