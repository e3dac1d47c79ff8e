// Package drivers executes reconfiguration plans against the simulated
// cluster, playing the role of the paper's SSH / Xen-API action
// drivers. Pools run sequentially; inside a pool every action starts in
// parallel, except the suspends and resumes, which are sorted by the
// hostname of their VMs and pipelined one second apart (§4.1): the VMs
// of a vjob pause in a fixed order within a short period while the
// bulk of the image writing still overlaps.
package drivers

import (
	"fmt"
	"sort"

	"cwcs/internal/obs"
	"cwcs/internal/plan"
	"cwcs/internal/sim"
)

// PipelineDelay is the delay between two pipelined suspend/resume
// starts, in seconds (the paper uses one second).
const PipelineDelay = 1.0

// Report summarizes an executed cluster-wide context switch.
type Report struct {
	// Start and End are the virtual times bounding the execution.
	Start, End float64
	// Cost is the §4.2 cost of the executed plan (recomputed after a
	// splice: executed prefix plus spliced suffix).
	Cost int
	// Actions counts executed actions; Pools the sequential steps.
	Actions, Pools int
	// Splices counts mid-flight plan repairs grafted in (see
	// Execution.Splice).
	Splices int
	// Errs collects per-action failures (empty on success).
	Errs []error
}

// Duration returns the wall-clock (virtual) length of the switch.
func (r Report) Duration() float64 { return r.End - r.Start }

// Callbacks observe an execution; every field is optional.
type Callbacks struct {
	// Failure fires at the virtual instant an action's application
	// fails, with the action and its error. The pool is still in
	// flight: record the failure and repair at the next PoolDone.
	Failure func(a plan.Action, err error)
	// PoolDone fires after every pool completes and before the next
	// starts. No action of this plan is in flight at that instant, so
	// it is the safe point to Splice a repaired remainder in.
	PoolDone func()
	// Done fires once, when the last pool has completed.
	Done func(Report)
	// Trace, when non-nil, records each action's lifetime as a span
	// on the virtual clock (kind "action", name = action kind).
	Trace *obs.Tracer
}

// actionKind names an action for the span stream and the
// cwcs_action_duration_vseconds{kind} label; the strings are the
// obs.ActionKinds vocabulary.
func actionKind(a plan.Action) string {
	switch k := a.Kind(); k {
	case plan.KindMigrate:
		return "migration"
	case plan.KindRun, plan.KindStop, plan.KindSuspend, plan.KindResume:
		return k.String()
	}
	return "other"
}

// ActionPhase is the lifecycle position of one scheduled action.
type ActionPhase int

const (
	// ActionPending: the action's pool has not started.
	ActionPending ActionPhase = iota
	// ActionRunning: the action is in flight.
	ActionRunning
	// ActionDone: the action applied successfully.
	ActionDone
	// ActionFailed: the action's application failed.
	ActionFailed
)

// String names the phase for logs and the control-plane API.
func (p ActionPhase) String() string {
	switch p {
	case ActionPending:
		return "pending"
	case ActionRunning:
		return "running"
	case ActionDone:
		return "done"
	case ActionFailed:
		return "failed"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// ActionStatus is the execution status of one action of the plan, the
// per-action progress the control plane's GET /v1/plan serves.
type ActionStatus struct {
	// Pool is the index of the action's pool in the current plan.
	Pool int
	// Action renders the action; VM names the manipulated VM.
	Action, VM string
	// Phase is the lifecycle position.
	Phase ActionPhase
	// Err holds the failure message when Phase is ActionFailed.
	Err string
	// Started and Ended are virtual times, meaningful from
	// ActionRunning (Started) and ActionDone/ActionFailed (Ended) on.
	Started, Ended float64
}

// actionRecord is the mutable progress entry behind one ActionStatus.
type actionRecord struct {
	phase          ActionPhase
	err            string
	started, ended float64
}

// Execution is a handle on an in-flight plan execution: the loop keeps
// it to observe progress and graft repaired plans in mid-flight.
type Execution struct {
	c        *sim.Cluster
	plan     *plan.Plan
	next     int // index of the next pool to start
	rep      Report
	cb       Callbacks
	finished bool
	// progress tracks per-action state, keyed by the action value
	// itself: splices keep the pointers of the actions they retain, so
	// records survive a mid-flight plan rewrite while records of
	// spliced-out actions simply stop being listed.
	progress map[plan.Action]*actionRecord
}

// Status reports the per-action progress of the plan as currently
// scheduled, in pool order. Actions of pools that have not started are
// ActionPending.
func (e *Execution) Status() []ActionStatus {
	out := make([]ActionStatus, 0, e.plan.NumActions())
	for pi, pool := range e.plan.Pools {
		for _, a := range pool {
			st := ActionStatus{Pool: pi, Action: fmt.Sprint(a), VM: a.VM().Name}
			if rec := e.progress[a]; rec != nil {
				st.Phase = rec.phase
				st.Err = rec.err
				st.Started, st.Ended = rec.started, rec.ended
			}
			out = append(out, st)
		}
	}
	return out
}

// Start launches the plan on the cluster with mid-flight
// observability and returns the execution handle; cb.Done receives a
// report when the last action of the last pool has completed. It
// returns immediately; the work happens as the simulation advances.
func Start(c *sim.Cluster, p *plan.Plan, cb Callbacks) *Execution {
	e := &Execution{c: c, plan: p, cb: cb,
		progress: make(map[plan.Action]*actionRecord),
		rep:      Report{Start: c.Now(), Cost: p.Cost(), Actions: p.NumActions(), Pools: len(p.Pools)}}
	e.runNext()
	return e
}

// Finished reports whether the last pool has completed.
func (e *Execution) Finished() bool { return e.finished }

// Plan returns the plan as currently scheduled: the executed prefix
// plus the (possibly spliced) remainder.
func (e *Execution) Plan() *plan.Plan { return e.plan }

// Remaining returns the pools that have not started, as a plan rooted
// at the live configuration — the still-open suffix a repair filters
// and splices (plan.Repair).
func (e *Execution) Remaining() *plan.Plan {
	return &plan.Plan{Src: e.c.Snapshot(), Pools: append([]plan.Pool(nil), e.plan.Pools[e.next:]...)}
}

// Splice replaces the pools that have not started with those of np,
// typically a plan.Repair output. It refuses once the plan completed;
// call it from the PoolDone callback, when no action is in flight.
func (e *Execution) Splice(np *plan.Plan) error {
	if e.finished {
		return fmt.Errorf("drivers: splice after the plan completed")
	}
	pools := append(e.plan.Pools[:e.next:e.next], np.Pools...)
	e.plan = &plan.Plan{Src: e.plan.Src, Pools: pools, Bypass: e.plan.Bypass + np.Bypass}
	e.rep.Actions = e.plan.NumActions()
	e.rep.Cost = e.plan.Cost()
	e.rep.Pools = len(pools)
	e.rep.Splices++
	return nil
}

func (e *Execution) runNext() {
	if e.next >= len(e.plan.Pools) {
		e.finished = true
		e.rep.End = e.c.Now()
		if e.cb.Done != nil {
			e.cb.Done(e.rep)
		}
		return
	}
	pool := e.plan.Pools[e.next]
	e.next++
	if len(pool) == 0 {
		e.poolDone()
		return
	}
	pending := len(pool)
	now := e.c.Now()
	for _, sa := range scheduleTimes(pool, now) {
		a, at := sa.action, sa.at
		e.c.Schedule(at, func() {
			rec := &actionRecord{phase: ActionRunning, started: e.c.Now()}
			e.progress[a] = rec
			sp := e.cb.Trace.Start(obs.KindAction, actionKind(a), e.c.Now())
			e.c.StartAction(a, func(err error) {
				rec.ended = e.c.Now()
				rec.phase = ActionDone
				if err != nil {
					rec.phase = ActionFailed
					rec.err = err.Error()
					e.rep.Errs = append(e.rep.Errs, err)
					sp.SetOutcome("failed")
					if e.cb.Failure != nil {
						e.cb.Failure(a, err)
					}
				}
				sp.End(e.c.Now())
				pending--
				if pending == 0 {
					e.poolDone()
				}
			})
		})
	}
}

// poolDone runs the boundary callback — which may Splice — then moves
// on to whatever pool is next afterwards.
func (e *Execution) poolDone() {
	if e.cb.PoolDone != nil {
		e.cb.PoolDone()
	}
	e.runNext()
}

type scheduledAction struct {
	action plan.Action
	at     float64
}

// scheduleTimes assigns a start time to every action of a pool:
// migrations, runs and stops start immediately; suspends and resumes
// are each pipelined PipelineDelay apart, ordered by the hostname of
// the manipulated VM then the VM name.
func scheduleTimes(pool plan.Pool, now float64) []scheduledAction {
	var immediate, pipelined []plan.Action
	for _, a := range pool {
		if k := a.Kind(); k == plan.KindSuspend || k == plan.KindResume {
			pipelined = append(pipelined, a)
		} else {
			immediate = append(immediate, a)
		}
	}
	sort.SliceStable(pipelined, func(i, j int) bool {
		hi, hj := hostOf(pipelined[i]), hostOf(pipelined[j])
		if hi != hj {
			return hi < hj
		}
		return pipelined[i].VM().Name < pipelined[j].VM().Name
	})
	out := make([]scheduledAction, 0, len(pool))
	for _, a := range immediate {
		out = append(out, scheduledAction{a, now})
	}
	for k, a := range pipelined {
		out = append(out, scheduledAction{a, now + float64(k)*PipelineDelay})
	}
	return out
}

// hostOf returns the node the VM of a pipelined action runs on: the
// one a suspend leaves, the one a resume arrives on.
func hostOf(a plan.Action) string {
	from, to := a.Nodes()
	if a.Kind() == plan.KindSuspend {
		return from
	}
	return to
}

// String renders the report for logs.
func (r Report) String() string {
	return fmt.Sprintf("switch[cost=%d actions=%d pools=%d %.0fs..%.0fs errs=%d]",
		r.Cost, r.Actions, r.Pools, r.Start, r.End, len(r.Errs))
}
