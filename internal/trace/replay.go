package trace

import (
	"cwcs/internal/core"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// Replay binds a decoded trace to a simulated cluster: every record
// becomes a scheduled mutation of the live configuration plus,
// optionally, a core.Event offered to the control loop — the same
// notify path the synthetic generators use, so a recorded trace and a
// generated workload exercise identical loop machinery.
type Replay struct {
	// Arrived, Departed and LoadChanges count the records applied so
	// far.
	Arrived, Departed, LoadChanges int

	jobs  []*vjob.VJob
	byJob map[string]*vjob.VJob
}

// Jobs returns the vjobs materialized so far, in first-arrival order
// — the live queue a core.Loop's Queue hook should read through a
// closure.
func (r *Replay) Jobs() []*vjob.VJob { return r.jobs }

// StartReplay schedules every record on the cluster's virtual clock
// and returns the replay handle. Arrivals materialize VMs (grouped
// into vjobs by the trace's vjob names, Waiting until the loop places
// them), load records rewrite the VM's demand vector, and departures
// mark the VM's workload done so the decision module's terminator
// retires it through an ordinary Stop action — departure frees
// resources via the loop, exactly like a finished synthetic workload.
//
// notify receives one event per applied record (VMArrival, LoadChange
// or VMDeparture, stamped with the cluster's clock); nil means a
// periodic loop that polls instead. Replay draws no randomness at
// all: given one decoded trace the schedule of mutations is fully
// determined, so any run-to-run variation comes from the loop under
// test, never from the driver.
//
// The records must be Decode-valid and sorted (Decode guarantees it);
// StartReplay trusts them.
func StartReplay(c *sim.Cluster, recs []Record, notify func(core.Event)) *Replay {
	r := &Replay{byJob: map[string]*vjob.VJob{}}
	cfg := c.Config()
	for i := range recs {
		rec := recs[i]
		c.Schedule(rec.At, func() {
			switch rec.Event {
			case EventArrive:
				demand, err := rec.Vector()
				if err != nil {
					return // unreachable on Decode-valid records
				}
				vm := vjob.NewVMRes(rec.VM, rec.VJob, demand)
				j := r.byJob[rec.VJob]
				if j == nil {
					j = vjob.NewVJob(rec.VJob, len(r.jobs))
					j.Submitted = c.Now()
					r.byJob[rec.VJob] = j
					r.jobs = append(r.jobs, j)
				}
				j.VMs = append(j.VMs, vm)
				cfg.AddVM(vm)
				r.Arrived++
				if notify != nil {
					notify(core.Event{Kind: core.VMArrival, At: c.Now(), VMs: []string{rec.VM}})
				}
			case EventLoad:
				v := cfg.VM(rec.VM)
				if v == nil {
					return // already reaped by a racing departure
				}
				demand, err := rec.Vector()
				if err != nil {
					return
				}
				v.Demand = demand
				r.LoadChanges++
				if notify != nil {
					notify(core.Event{Kind: core.LoadChange, At: c.Now(), VMs: []string{rec.VM}})
				}
			case EventDepart:
				// An empty workload is immediately done: VJobDone turns
				// true once every VM of the job departed and the
				// terminator issues the Stop actions that free the
				// resources.
				c.SetWorkload(rec.VM, nil)
				r.Departed++
				if notify != nil {
					notify(core.Event{Kind: core.VMDeparture, At: c.Now(), VMs: []string{rec.VM}})
				}
			}
		})
	}
	return r
}
