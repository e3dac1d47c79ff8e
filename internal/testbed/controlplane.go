package testbed

import (
	"fmt"
	"sync"

	"cwcs/internal/api"
	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// ControlPlane wires the testbed into the embeddable API server; mu is
// the mutex the host's sim driver holds while advancing virtual time.
// Call it before the loop starts: it turns the solver telemetry on,
// whose records only matter once something can read them.
func (t *Testbed) ControlPlane(mu *sync.Mutex) *api.Server {
	c := t.Cluster
	t.Loop.Solver = core.NewSolverTelemetry(0)
	return &api.Server{
		Trace:  t.tracer,
		Ledger: t.ledger,
		Solver: t.Loop.Solver,
		Exec: func(fn func()) {
			mu.Lock()
			defer mu.Unlock()
			fn()
		},
		Now:      c.Now,
		Config:   c.Config,
		Stats:    func() core.LoopStats { return t.Loop.Stats },
		Switches: func() int { return len(t.Loop.Records) },
		Execution: func() *drivers.Execution {
			ex, _ := t.Loop.Execution().(*drivers.Execution)
			return ex
		},
		Notify: func(ev core.Event) { t.Feed(ev) },
		Drains: t.drains,
		OnUndrain: func(node string) error {
			if c.Config().Node(node) == nil {
				// The node was taken offline after evacuation: bring it
				// back before lifting the drain order.
				return c.SetNodeOnline(node)
			}
			return nil
		},
		Submit:           t.submit,
		Withdraw:         t.withdraw,
		ViolationSeconds: t.ledger.Total,
		QueueDepth:       t.queueDepth,
	}
}

// queueDepth counts the vjobs of the loop's queue that are not done; a
// vjob of service VMs, which never finish, always counts.
func (t *Testbed) queueDepth() int {
	n := 0
	for _, j := range t.Jobs() {
		if !t.Cluster.VJobDone(j) {
			n++
		}
	}
	return n
}

// submit is POST /v1/vjobs: the vjob joins the queue behind everything
// submitted before it.
func (t *Testbed) submit(spec api.VJobSpec) error {
	c, cfg := t.Cluster, t.Cluster.Config()
	for _, j := range t.jobs {
		if j.Name == spec.Name {
			return fmt.Errorf("vjob %s already exists", spec.Name)
		}
	}
	var vms []*vjob.VM
	for _, v := range spec.VMs {
		if cfg.VM(v.Name) != nil {
			return fmt.Errorf("VM %s already exists", v.Name)
		}
		vms = append(vms, vjob.NewVM(v.Name, spec.Name, v.CPU, v.Memory))
	}
	// The priority is a count that never goes back: the queue's length
	// shrinks on withdrawal, and a priority handed out twice lets a
	// later vjob overtake an earlier one (sched.SortQueue looks at
	// Submitted only on ties).
	job := vjob.NewVJob(spec.Name, t.submitted, vms...)
	t.submitted++
	job.Submitted = c.Now()
	phases := make(map[string][]sim.Phase)
	for _, v := range spec.VMs {
		for _, p := range v.Phases {
			phases[v.Name] = append(phases[v.Name], sim.Phase(p))
		}
	}
	workload.Spec{Job: job, Phases: phases}.Install(cfg, c)
	t.jobs = append(t.jobs, job)
	t.Feed(core.Event{Kind: core.VMArrival, At: c.Now(), VMs: vmNames(job)})
	return nil
}

// withdraw is DELETE /v1/vjobs/{name}: only a vjob still waiting can
// be taken back.
func (t *Testbed) withdraw(name string) error {
	cfg := t.Cluster.Config()
	for i, j := range t.jobs {
		if j.Name != name {
			continue
		}
		for _, v := range j.VMs {
			if cfg.VM(v.Name) != nil && cfg.StateOf(v.Name) != vjob.Waiting {
				return fmt.Errorf("vjob %s is already placed; let it finish", name)
			}
		}
		for _, v := range j.VMs {
			cfg.RemoveVM(v.Name)
		}
		t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
		t.Feed(core.Event{Kind: core.VMDeparture, At: t.Cluster.Now(), VMs: vmNames(j)})
		return nil
	}
	return fmt.Errorf("unknown vjob %s", name)
}
