package drivers

import (
	"cwcs/internal/core"
	"cwcs/internal/obs"
	"cwcs/internal/plan"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// Actuator adapts a simulated cluster to the core.Actuator interface,
// wiring the Entropy control loop to the drivers.
type Actuator struct {
	// C is the simulated cluster.
	C *sim.Cluster
	// Reports accumulates the raw execution reports.
	Reports []Report
	// Trace, when non-nil, records executed-action spans (see
	// Callbacks.Trace); share the loop's tracer so action spans carry
	// the reconfiguration cause that scheduled them.
	Trace *obs.Tracer
}

// Now returns the cluster's virtual time.
func (a *Actuator) Now() float64 { return a.C.Now() }

// Schedule forwards to the cluster's event queue.
func (a *Actuator) Schedule(at float64, fn func()) { a.C.Schedule(at, fn) }

// Observe snapshots the configuration.
func (a *Actuator) Observe() *vjob.Configuration { return a.C.Snapshot() }

// Execute runs the plan through the drivers and reports back, without
// the mid-flight callbacks of ExecuteManaged.
func (a *Actuator) Execute(p *plan.Plan, done func(duration float64, failures int)) {
	Start(a.C, p, Callbacks{
		Trace: a.Trace,
		Done: func(r Report) {
			a.Reports = append(a.Reports, r)
			done(r.Duration(), len(r.Errs))
		},
	})
}

// ExecuteManaged runs the plan with mid-flight observability, making
// the Actuator a core.Actuator: the event-driven loop uses the
// returned handle to splice plan repairs in at pool boundaries.
func (a *Actuator) ExecuteManaged(p *plan.Plan, onFailure func(plan.Action, error), onPoolDone func(), done func(duration float64, failures int)) core.Execution {
	return Start(a.C, p, Callbacks{
		Failure:  onFailure,
		PoolDone: onPoolDone,
		Trace:    a.Trace,
		Done: func(r Report) {
			a.Reports = append(a.Reports, r)
			done(r.Duration(), len(r.Errs))
		},
	})
}
