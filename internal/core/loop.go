package core

import (
	"context"
	"errors"

	"cwcs/internal/obs"
	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// DecisionModule is the pluggable scheduling policy of §3.1: from an
// observed configuration and the vjob queue it decides the state each
// vjob must reach. internal/sched provides the paper's sample modules.
type DecisionModule interface {
	Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State
}

// Actuator abstracts the cluster the loop drives: a clock, an observer
// (monitoring) and an executor (drivers). internal/drivers adapts the
// simulator to this interface.
type Actuator interface {
	// Now returns the current virtual time in seconds.
	Now() float64
	// Schedule runs fn at the given virtual time.
	Schedule(at float64, fn func())
	// Observe returns a stable snapshot of the configuration.
	Observe() *vjob.Configuration
	// ExecuteManaged runs the plan and returns a handle through which
	// it can be observed and repaired mid-flight: onFailure fires at
	// the instant an action fails, onPoolDone at every pool boundary
	// (the safe splice point), and done, once the last pool completed,
	// with the execution duration in seconds and the number of failed
	// actions.
	ExecuteManaged(p *plan.Plan, onFailure func(plan.Action, error), onPoolDone func(), done func(duration float64, failures int)) Execution
}

// SwitchRecord is the telemetry of one cluster-wide context switch,
// the data points of Figure 11.
type SwitchRecord struct {
	// At is the virtual time the switch started.
	At float64
	// Cost is the §4.2 plan cost.
	Cost int
	// Duration is the execution time in seconds.
	Duration float64
	// Actions and Pools describe the executed plan.
	Actions, Pools int
	// Failures counts actions whose application failed.
	Failures int
	// Slices is how many dirty partition slices this switch re-solved
	// (0 for a periodic/monolithic switch).
	Slices int
}

// LoopStats is the loop's own telemetry, the measurement basis of the
// periodic-vs-event-driven churn study.
type LoopStats struct {
	// Iterations counts wake-ups that ran the decision module.
	Iterations int
	// SolverCalls counts optimizer invocations: one per monolithic
	// solve, one per dirty slice (not per batch of them) in incremental
	// mode. Satisfied iterations skip the solver and count nothing.
	SolverCalls int
	// SubSolves counts independent sub-problem optimizations — the
	// unit comparable across schedules: a monolithic invocation that
	// decomposed into k partitions adds k, a slice solve adds 1.
	SubSolves int
	// SliceSolves is the subset of SolverCalls that covered only a
	// dirty slice of the cluster.
	SliceSolves int
	// FullSolves counts incremental iterations that fell back to the
	// monolithic model (undecomposable problem or a failed slice).
	FullSolves int
	// Repairs counts in-flight plan repairs spliced successfully;
	// FailedRepairs the attempts that had to fall back.
	Repairs, FailedRepairs int
	// WidenedRepairs is the subset of Repairs that could only splice
	// after widening the repair region over a broken dependency chain
	// (plan.ErrBrokenDependency); RepairExpansions counts the widening
	// steps themselves, so RepairExpansions/WidenedRepairs is the mean
	// expansion depth of the chains absorbed.
	WidenedRepairs, RepairExpansions int
	// Events counts events received; Coalesced the ones absorbed into
	// an already-armed wake-up or an in-flight execution.
	Events, Coalesced int
	// PartitionReuses is always 0: every wake carves afresh. It stays
	// only because the benchmark reads it; the benchmark's next change
	// drops it together with loop.partition_reuse_ratio.
	PartitionReuses int
}

// Loop is the Entropy control loop (§3.1, Figure 4): iteratively
// observe the cluster, run the decision module, optimize the
// reconfiguration, and execute the cluster-wide context switch.
//
// Two schedules are supported. The periodic schedule (the paper's) re-
// solves the whole cluster Interval seconds after the previous round
// finished, execution included. The event-driven schedule
// (EventDriven) reacts to cluster events instead: Notify feeds VM
// arrivals/departures, load changes, node changes and action failures
// into a dirty-set; a burst of events is debounced, and the wake-up
// re-solves only the partition slices containing dirty elements — as
// one batch under one Timeout, the way SolveContext solves a whole
// decomposition, each search warm-started from the previous incumbent
// assignment — and merges them into one switch. An action failure
// during execution triggers a local plan repair (plan.Repair) spliced
// in at the next pool boundary instead of a full abort.
//
// The loop is a state machine over one phase: idle, armed (a debounced
// wake is scheduled), executing (a switch runs) and repair-due (an
// action of the running switch failed; the next pool boundary
// repairs). Its inputs are Start, Notify, the timers it arms, the pool
// boundaries and the completion of an execution; DESIGN.md §6 prints
// the transition table. A canceled Ctx or a true Done halts the loop
// without a transition: from then on no round or repair runs, and a
// plan already executing runs to completion.
type Loop struct {
	// Decision chooses vjob states; required.
	Decision DecisionModule
	// Ctx, when non-nil, cancels the loop: in-flight optimizations
	// stop (returning their best result so far) and no further
	// iteration is scheduled once it is done.
	Ctx context.Context
	// Optimizer computes the context switch; the zero value works.
	Optimizer Optimizer
	// Interval is the pause between iterations in seconds (the
	// paper's sample module runs every 30 s; 0 defaults to that).
	// Ignored in event-driven mode.
	Interval float64
	// EventDriven switches from the periodic schedule to the
	// incremental engine. The first iteration still solves the whole
	// cluster (bootstrap); everything after is driven by Notify.
	EventDriven bool
	// Debounce is the settle delay in virtual seconds between the
	// first event of a burst and the reacting iteration; 0 defaults
	// to 2 s. Storms of events within the window coalesce into one
	// wake-up.
	Debounce float64
	// Rules are administrator placement rules enforced on every solve.
	Rules []PlacementRule
	// Drains, when non-nil, is the operator drain bridge: its Drained
	// rules are appended to Rules at every solve, so a drain command
	// immediately forbids the node to the optimizer and the next
	// wake-up evacuates it.
	Drains *DrainSet
	// Queue supplies the live vjob queue at each iteration; required.
	Queue func() []*vjob.VJob
	// Done, when non-nil, is polled at each iteration; returning true
	// stops the loop (e.g. every vjob terminated).
	Done func() bool
	// OnSwitch, when non-nil, receives the record of each non-empty
	// context switch.
	OnSwitch func(SwitchRecord)
	// Trace, when non-nil, records every pipeline stage as causal
	// spans (internal/obs): an event burst opens a reconfiguration
	// span that closes when the loop goes idle again, and debounce
	// waits, partition carves, slice solves, plan merges, splice
	// repairs and wake rounds land as child spans carrying the
	// burst's cause ID. A nil Trace is inert — every call site either
	// guards on it or goes through nil-safe obs.Span methods, so tracing
	// off adds no allocation to the hot path (obs's
	// TestNilTracerIsInertAndFree pins those methods at 0).
	Trace *obs.Tracer
	// Solver, when non-nil, accumulates search telemetry: one
	// SolveReport per optimizer invocation (full or slice scope) with
	// the dirty cause that provoked it, the winning strategy and the
	// per-worker search counters — the data behind GET /v1/solver and
	// the cwcs_portfolio_wins_total / cwcs_warm_start_* families. A
	// nil Solver records nothing: report is the one recording site and
	// checks it (TestLoopSolverDisabledIsByteIdentical).
	Solver *SolverTelemetry

	// Records accumulates every non-empty context switch.
	Records []SwitchRecord
	// Stats accumulates the loop telemetry.
	Stats LoopStats

	// phase is where the loop stands; gen numbers the debounced wakes,
	// so a timer that a later arm superseded stays inert.
	phase phase
	gen   int
	// dirty holds what events touched since the last round, and whether
	// a pass is owed regardless; exec is the running execution.
	dirty dirtySet
	exec  Execution
	// lastDst is the expected destination of the last switch: the
	// warm-start assignment of the next solve.
	lastDst *vjob.Configuration

	// Observability state: the open reconfiguration/debounce/wake
	// spans, plus the virtual time of the running iteration — the sim
	// clock cannot advance inside a synchronous solve, so it is
	// sampled once per wake and reused by the stages underneath.
	causeSpan    obs.Span
	debounceSpan obs.Span
	wakeSpan     obs.Span
	nowVirt      float64
	// causeKind names the event kind that opened the current
	// reconfiguration episode — the "why" a slice is re-solved. It is
	// tracked independently of causeSpan so solver telemetry carries
	// causes even without a tracer.
	causeKind string
}

// phase is where the loop stands in its cycle (see the Loop doc).
// Every phase from phaseExecuting on skips a round.
type phase uint8

const (
	phaseIdle      phase = iota // nothing executes, no wake armed; a full round may be due
	phaseArmed                  // a debounced incremental wake is scheduled
	phaseExecuting              // a context switch executes
	phaseRepairDue              // executing; the next pool boundary repairs a failure
)

// Start schedules the first round immediately and returns; the loop
// then lives on the actuator's clock. The first round solves the whole
// cluster in either schedule (the event-driven bootstrap).
func (l *Loop) Start(a Actuator) {
	l.Trace.Mark("loop-start", a.Now())
	l.arm(a, 0, true)
}

// endWake closes the open wake span, tagging whether the round ended
// in a context switch.
func (l *Loop) endWake(a Actuator, switched bool) {
	l.wakeSpan.SetSwitch(switched)
	l.wakeSpan.End(a.Now())
}

// closeCause ends the live reconfiguration span: the loop is idle —
// no dirty work, nothing executing, no wake armed — so the burst that
// opened it is remediated as far as the loop can tell. Its virtual
// duration is the event-to-remediation time.
func (l *Loop) closeCause(a Actuator) {
	l.causeKind = ""
	if !l.causeSpan.Active() {
		return
	}
	l.causeSpan.End(a.Now())
	l.Trace.SetCause(0)
}

// report accounts for one optimizer invocation, warm-started from
// lastDst, once it — or its whole batch of slices — has returned (the
// tracer has one producer); res is nil when it failed. It counts the
// call, publishes its solve span and folds it into the solver telemetry:
// what ran (scope: "full" or "slice"), why (the episode's opening event
// kind and reconfig span ID), who won and what the search cost. Both
// sinks are guarded, so the disabled path builds no report.
func (l *Loop) report(scope string, res *Result) {
	l.Stats.SolverCalls++
	warm := l.lastDst != nil
	sp := l.Trace.Start(obs.KindSolve, scope, l.nowVirt)
	if res == nil {
		sp.SetOutcome("error")
		sp.End(l.nowVirt)
		return
	}
	sp.SetSolve(float64(res.Cost), max(res.Partitions, 1), warm)
	sp.SetSearch(res.Winner, res.Nodes, res.Fails, res.WarmHit)
	sp.EndMeasured(l.nowVirt, res.Wall)
	if l.Solver != nil {
		l.Solver.RecordSolve(SolveReport{
			Virt:        l.nowVirt,
			Scope:       scope,
			Cause:       l.causeKind,
			CauseID:     l.causeSpan.ID(),
			Winner:      res.Winner,
			Cost:        res.Cost,
			Nodes:       res.Nodes,
			Backtracks:  res.Fails,
			WarmStart:   warm,
			WarmHit:     res.WarmHit,
			Workers:     res.Outcomes,
			Trajectory:  res.Trajectory,
			WallSeconds: res.Wall.Seconds(),
			Phases:      res.Phases,
		})
	}
}

func (l *Loop) interval() float64 {
	if l.Interval <= 0 {
		return 30
	}
	return l.Interval
}

func (l *Loop) debounce() float64 {
	if l.Debounce <= 0 {
		return 2
	}
	return l.Debounce
}

func (l *Loop) ctx() context.Context {
	if l.Ctx != nil {
		return l.Ctx
	}
	return context.Background()
}

// halted reports whether Ctx or Done ended the loop.
func (l *Loop) halted() bool {
	return l.ctx().Err() != nil || (l.Done != nil && l.Done())
}

// rules combines the static administrator rules with the dynamic drain
// rules of the bridge.
func (l *Loop) rules() []PlacementRule {
	if l.Drains == nil {
		return l.Rules
	}
	dr := l.Drains.Rules()
	if len(dr) == 0 {
		return l.Rules
	}
	return append(append([]PlacementRule(nil), l.Rules...), dr...)
}

// Busy reports whether a context switch is executing right now.
func (l *Loop) Busy() bool { return l.phase >= phaseExecuting }

// Execution returns the handle of the in-flight execution, or nil
// when no plan is executing.
func (l *Loop) Execution() Execution { return l.exec }

// Notify feeds one cluster event into the event-driven loop. Events
// received while a plan executes only mark the dirty-set — except
// action failures, which additionally request an in-flight repair at
// the next pool boundary; the wake-up then happens right after the
// execution completes. Events received while idle arm a debounced
// wake-up; further events within the window coalesce. Notify is a
// no-op on a periodic loop.
func (l *Loop) Notify(a Actuator, ev Event) {
	if !l.EventDriven {
		return
	}
	l.Stats.Events++
	l.dirty.add(ev)
	// The first event of an idle-to-busy burst names the episode's
	// cause — tracked as a plain string too, so solver telemetry can
	// say why a slice was re-solved even when no tracer is attached.
	if l.causeKind == "" {
		l.causeKind = ev.Kind.String()
	}
	if l.Trace != nil {
		if !l.causeSpan.Active() {
			l.causeSpan = l.Trace.Start(obs.KindReconfig, ev.Kind.String(), a.Now())
			l.Trace.SetCause(l.causeSpan.ID())
		}
		l.causeSpan.AddEvents(1)
	}
	switch {
	case l.phase == phaseIdle:
		l.arm(a, l.debounce(), false)
	case l.Busy() && ev.Kind == ActionFailure && l.exec != nil && !l.exec.Finished():
		l.phase = phaseRepairDue
	default:
		l.Stats.Coalesced++
	}
}

// arm schedules a round delay virtual seconds from now. A full round —
// the first, a periodic one, a bootstrap retry — leaves the phase
// alone. An incremental round is the debounced wake: arming it moves
// idle to armed and opens a debounce span its timer closes. The timer
// wakes the loop only if no later arm superseded it and the loop is
// still armed: a full round may have started a switch meanwhile.
func (l *Loop) arm(a Actuator, delay float64, full bool) {
	at := a.Now() + delay
	if full {
		a.Schedule(at, func() { l.wake(a, true) })
		return
	}
	if l.phase == phaseArmed {
		return
	}
	l.phase = phaseArmed
	l.gen++
	gen := l.gen
	// A still open span belongs to a wake this arm supersedes.
	l.debounceSpan.End(a.Now())
	if l.Trace != nil {
		l.debounceSpan = l.Trace.Start(obs.KindDebounce, "debounce", a.Now())
	}
	a.Schedule(at, func() {
		if gen != l.gen {
			return
		}
		l.debounceSpan.End(a.Now())
		if l.phase == phaseArmed {
			l.phase = phaseIdle
			l.wake(a, false)
		}
	})
}

// wake is one observe/decide/plan/execute round. A full round solves
// the whole cluster; an incremental one re-solves the dirty slices,
// falling back to the whole cluster on an undecomposable problem, a
// failed batch, or an unmet need in a slice no event touched (every
// dirty slice is clean, yet the problem is not satisfied). No round
// starts while a plan executes or once the loop halted.
func (l *Loop) wake(a Actuator, full bool) {
	if l.phase >= phaseExecuting || l.halted() {
		return
	}
	l.nowVirt = a.Now()
	scope := "incremental"
	if full {
		scope = "full"
	}
	l.wakeSpan = l.Trace.Start(obs.KindWake, scope, l.nowVirt)
	var dirtyNodes, dirtyVMs map[string]bool
	if !full {
		if l.dirty.empty() {
			l.endWake(a, false)
			l.next(a)
			return
		}
		dirtyNodes, dirtyVMs, _ = l.dirty.take()
	}
	cfg := a.Observe()
	target := l.Decision.Decide(cfg, l.Queue())
	l.Stats.Iterations++
	p := Problem{Src: cfg, Target: target, Rules: l.rules()}
	if p.Satisfied() {
		l.lastDst = cfg
		l.endWake(a, false)
		l.next(a)
		return
	}
	if !full {
		if sr, err := l.solveDirtySlices(p, dirtyNodes, dirtyVMs, nil, nil); err == nil {
			l.execute(a, sr.merged, sr.merged.Partitions)
			return
		}
		// The monolithic fallback arms a fresh Timeout of its own.
		l.Stats.FullSolves++
	}
	opt := l.Optimizer
	opt.WarmStart = l.lastDst
	res, err := opt.SolveContext(l.ctx(), p)
	l.report("full", res)
	if err == nil {
		l.Stats.SubSolves += max(res.Partitions, 1)
		l.execute(a, res, 0)
		return
	}
	// The solve failed: an expired budget before any solution, or a
	// transient unviability.
	l.endWake(a, false)
	if full && l.EventDriven {
		// A failed bootstrap must retry: with an empty dirty-set no
		// event would otherwise reschedule it, and the cluster would
		// sit violated until an unrelated event.
		l.arm(a, l.debounce(), true)
		return
	}
	if !full {
		// Keep the region dirty and owe a pass: it retries after the
		// debounce, as the periodic schedule retries every interval.
		l.dirty.put(dirtyNodes, dirtyVMs, true)
	}
	l.next(a)
}

// next follows a round that rested or failed and every finished
// switch: the periodic schedule's next round is due Interval seconds
// later; the event-driven loop arms a wake while work is left — dirty
// elements or an owed pass — and closes the episode otherwise.
func (l *Loop) next(a Actuator) {
	l.exec = nil
	if l.Busy() {
		l.phase = phaseIdle
	}
	switch {
	case !l.EventDriven:
		l.arm(a, l.interval(), true)
	case !l.dirty.empty():
		l.arm(a, l.debounce(), false)
	case l.phase == phaseIdle:
		// Truly idle: the reconfiguration that started with the
		// first Notify of the burst is remediated.
		l.closeCause(a)
	}
}

// execute acts on a solved round: its destination is the next warm
// start, and its plan — unless empty, when the round rests — runs and
// is recorded as a switch, tagged with the dirty slices it came from.
func (l *Loop) execute(a Actuator, res *Result, slices int) {
	l.lastDst = res.Dst
	if res.Plan.NumActions() == 0 {
		l.endWake(a, false)
		l.next(a)
		return
	}
	l.endWake(a, true)
	rec := SwitchRecord{
		At:      a.Now(),
		Cost:    res.Cost,
		Actions: res.Plan.NumActions(),
		Pools:   len(res.Plan.Pools),
		Slices:  slices,
	}
	l.phase = phaseExecuting
	// A switch changes the region it touches: mark it dirty so the
	// event-driven loop runs one follow-up pass and converges the
	// decision module to a fixpoint (multi-round policies like
	// resume-then-terminate depend on it). The follow-up solve sees an
	// already-final region and yields an empty plan, ending the chain.
	// Nodes matter as much as VMs: a Stop removes its VM from the
	// configuration, so only the freed nodes lead the follow-up pass
	// back to the right slice.
	if l.EventDriven {
		var buf [2]string
		for _, act := range res.Plan.Actions() {
			l.dirty.add(Event{Nodes: plan.AppendTouchedNodes(buf[:0], act), VMs: []string{act.VM().Name}})
		}
	}
	// A failure's Notify and a pool boundary are no-ops on a periodic
	// loop: it never becomes repair-due.
	l.exec = a.ExecuteManaged(res.Plan,
		func(act plan.Action, err error) { l.Notify(a, FailureEvent(a.Now(), act)) },
		func() { l.poolBoundary(a) },
		func(duration float64, failures int) {
			// A splice may have grown or shrunk the plan: refresh the
			// record so Records agrees with what actually ran.
			if ex := l.exec; ex != nil {
				p := ex.Plan()
				rec.Cost = p.Cost()
				rec.Actions = p.NumActions()
				rec.Pools = len(p.Pools)
			}
			rec.Duration = duration
			rec.Failures = failures
			l.Records = append(l.Records, rec)
			if l.OnSwitch != nil {
				l.OnSwitch(rec)
			}
			l.Trace.Mark("switch-done", a.Now())
			l.next(a)
		})
}

// poolBoundary runs between pools of an execution: the safe
// instant to splice a repair for failures observed so far. The attempt
// is one splice span recording its outcome and widening depth.
func (l *Loop) poolBoundary(a Actuator) {
	if l.phase != phaseRepairDue || l.halted() {
		return
	}
	l.phase = phaseExecuting
	l.nowVirt = a.Now()
	sp := l.Trace.Start(obs.KindSplice, "repair", l.nowVirt)
	outcome, widened := l.repair(a)
	sp.SetWiden(widened)
	sp.SetOutcome(outcome)
	sp.End(a.Now())
}

// maxRepairWiden is the region-expansion bound of an in-flight
// repair. Each widening step pulls at least one more partition slice
// into the re-solved region and pays one more round of slice solves;
// a chain still broken after three expansions spans so much of the
// cluster that the post-execution full pass is the cheaper recovery.
const maxRepairWiden = 3

// Splice span outcomes; constants so recording them never allocates.
const (
	repairSpliced  = "spliced"
	repairFallback = "fallback"
	repairNoop     = "noop"
)

// repair re-solves the dirty slices against the live configuration
// and splices the result into the executing plan. When the splice
// would strand a kept action whose feasibility depended on a dropped
// one (plan.ErrBrokenDependency), the broken chain's dependency
// closure joins the dirty region and the repair re-carves and
// re-solves the widened region, up to maxRepairWiden times. On any
// other obstacle — undecomposable problem, failed slice solve, a true
// infeasibility, an exhausted widening budget — the dirty region is
// put back and a full incremental pass runs once the execution
// completes.
func (l *Loop) repair(a Actuator) (outcome string, widened int) {
	dirtyNodes, dirtyVMs, owed := l.dirty.take()
	// A mid-flight repair never discharges the dirty-set: the region
	// is only clean once a post-execution round sees it satisfied.
	// Putting the taken sets back on every path preserves the fixpoint
	// follow-up pass execute() arranged (the switch's own self-dirty
	// marks travel through this take too, and widened elements travel
	// with them); the follow-up is cheap — satisfied slices skip the
	// solver entirely.
	defer l.dirty.put(dirtyNodes, dirtyVMs, owed)
	fallback := func() {
		l.dirty.owed = true
		l.Stats.FailedRepairs++
	}
	cur := a.Observe()
	target := l.Decision.Decide(cur, l.Queue())
	p := Problem{Src: cur, Target: target, Rules: l.rules()}
	// coverNodes/coverVMs grow with each widening: a satisfied slice
	// inside the widened region contributes coverage without a solve
	// (its optimal plan is empty), which is what lets Repair drop the
	// broken chain's kept actions there.
	var coverNodes, coverVMs map[string]bool
	for {
		sr, err := l.solveDirtySlices(p, dirtyNodes, dirtyVMs, coverNodes, coverVMs)
		if err != nil {
			if errors.Is(err, errNothingDirty) {
				return repairNoop, widened
			}
			fallback()
			return repairFallback, widened
		}
		repaired, err := plan.Repair(cur, l.exec.Remaining(), sr.nodes, sr.vms, sr.merged.Plan)
		if err != nil {
			var broken *plan.ErrBrokenDependency
			if errors.As(err, &broken) && widened < maxRepairWiden {
				widened++
				l.Stats.RepairExpansions++
				if coverNodes == nil {
					coverNodes, coverVMs = map[string]bool{}, map[string]bool{}
				}
				for _, n := range broken.Nodes {
					dirtyNodes[n] = true
					coverNodes[n] = true
				}
				for _, v := range broken.VMs {
					dirtyVMs[v] = true
					coverVMs[v] = true
				}
				continue
			}
			fallback()
			return repairFallback, widened
		}
		if err := l.exec.Splice(repaired); err != nil {
			fallback()
			return repairFallback, widened
		}
		l.Stats.Repairs++
		if widened > 0 {
			l.Stats.WidenedRepairs++
		}
		if final, err := repaired.Result(); err == nil {
			l.lastDst = final
		}
		return repairSpliced, widened
	}
}

// errMonolithic reports a problem the partitioner keeps whole;
// errNothingDirty an iteration whose dirty elements all vanished.
var (
	errMonolithic   = errors.New("core: problem not decomposable")
	errNothingDirty = errors.New("core: no slice intersects the dirty-set")
)

// sliceResult is one re-solved batch of dirty slices.
type sliceResult struct {
	// merged is mergeSlices over the re-solved slices.
	merged *Result
	// nodes and vms are the full coverage of the solved slices — the
	// region a repair must clear in the remaining plan.
	nodes, vms map[string]bool
}

// solveDirtySlices carves the problem afresh with Partitioner.Split
// (every wake and every repair does; nothing remembers a carve between
// them) and re-solves only the slices containing dirty elements — as
// one batch under one Timeout, warm-started from the last incumbent
// assignment — then merges them. coverNodes/coverVMs (nil outside a widened repair)
// name elements whose slices must enter the result's coverage even
// when satisfied: such a slice contributes no plan — staying put is its
// provably optimal reconfiguration — but its region lets plan.Repair
// drop the broken chain's kept actions.
func (l *Loop) solveDirtySlices(p Problem, dirtyNodes, dirtyVMs, coverNodes, coverVMs map[string]bool) (*sliceResult, error) {
	sp := l.Trace.Start(obs.KindCarve, "carve", l.nowVirt)
	parts, err := (Partitioner{Parts: l.Optimizer.Partitions}).Split(p)
	if err != nil {
		sp.SetOutcome("error")
	}
	sp.End(l.nowVirt)
	if err != nil || len(parts) < 2 {
		return nil, errMonolithic
	}
	out := &sliceResult{nodes: map[string]bool{}, vms: map[string]bool{}}
	var dirty []Problem
	for _, sub := range parts {
		if !touchesSets(sub.Src, dirtyNodes, dirtyVMs) {
			continue
		}
		// A satisfied slice needs no plan — its optimal plan is empty
		// — so the event storm of harmless load changes costs nothing.
		if !sub.Satisfied() {
			dirty = append(dirty, sub)
		} else if !touchesSets(sub.Src, coverNodes, coverVMs) {
			continue
		}
		for _, n := range sub.Src.Nodes() {
			out.nodes[n.Name] = true
		}
		for _, v := range sub.Src.VMs() {
			out.vms[v.Name] = true
		}
	}
	if len(out.nodes)+len(out.vms) == 0 {
		return nil, errNothingDirty
	}
	opt := l.Optimizer
	opt.WarmStart = l.lastDst
	ctx, cancel := opt.budget(l.ctx())
	defer cancel()
	results, err := opt.solveSlices(ctx, dirty)
	l.Stats.SliceSolves += len(dirty)
	l.Stats.SubSolves += len(dirty)
	for _, res := range results {
		l.report("slice", res)
	}
	if err != nil {
		return nil, err
	}
	ms := l.Trace.Start(obs.KindMerge, "merge", l.nowVirt)
	out.merged, err = mergeSlices(p.Src, dirty, results)
	if err != nil {
		ms.SetOutcome("error")
	}
	ms.End(l.nowVirt)
	return out, err
}

// touchesSets reports whether the slice holds any dirty node or VM.
func touchesSets(sub *vjob.Configuration, nodes, vms map[string]bool) bool {
	for n := range nodes {
		if sub.Node(n) != nil {
			return true
		}
	}
	for v := range vms {
		if sub.VM(v) != nil {
			return true
		}
	}
	return false
}
