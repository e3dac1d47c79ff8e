package core

import (
	"context"
	"errors"
	"testing"

	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// fakeManaged extends fakeActuator with managed executions: pools run
// one per poolSecs of virtual time, actions on failVMs fail without
// applying, and the loop's failure/pool-boundary callbacks fire like
// the real drivers.
type fakeManaged struct {
	fakeActuator
	poolSecs float64
	failVMs  map[string]bool
	splices  int
}

type fakeExec struct {
	a          *fakeManaged
	plan       *plan.Plan
	next       int
	finished   bool
	refuse     bool // Splice refuses every repaired plan
	failures   int
	start      float64
	onFailure  func(plan.Action, error)
	onPoolDone func()
	done       func(float64, int)
}

func (a *fakeManaged) ExecuteManaged(p *plan.Plan, onFailure func(plan.Action, error), onPoolDone func(), done func(duration float64, failures int)) Execution {
	a.executed = append(a.executed, p)
	e := &fakeExec{a: a, plan: p, start: a.now, onFailure: onFailure, onPoolDone: onPoolDone, done: done}
	e.runNext()
	return e
}

func (e *fakeExec) runNext() {
	if e.next >= len(e.plan.Pools) {
		e.finished = true
		e.a.schedule(e.a.now, "done", func() { e.done(e.a.now-e.start, e.failures) })
		return
	}
	pool := e.plan.Pools[e.next]
	e.next++
	e.a.schedule(e.a.now+e.a.poolSecs, "pool", func() {
		for _, act := range pool {
			if e.a.failVMs[act.VM().Name] {
				e.failures++
				if e.onFailure != nil {
					e.onFailure(act, errors.New("injected failure"))
				}
				continue
			}
			if err := act.Apply(e.a.cfg); err != nil {
				e.failures++
				if e.onFailure != nil {
					e.onFailure(act, err)
				}
			}
		}
		if e.onPoolDone != nil {
			e.onPoolDone()
		}
		e.runNext()
	})
}

func (e *fakeExec) Remaining() *plan.Plan {
	return &plan.Plan{Src: e.a.cfg.Clone(), Pools: append([]plan.Pool(nil), e.plan.Pools[e.next:]...)}
}

func (e *fakeExec) Splice(np *plan.Plan) error {
	if e.finished {
		return errors.New("fake: splice after completion")
	}
	if e.refuse {
		return errors.New("fake: splice refused")
	}
	e.a.splices++
	e.plan = &plan.Plan{Src: e.plan.Src, Pools: append(e.plan.Pools[:e.next:e.next], np.Pools...)}
	return nil
}

func (e *fakeExec) Finished() bool { return e.finished }

func (e *fakeExec) Plan() *plan.Plan { return e.plan }

// decisionFunc adapts a function into a DecisionModule.
type decisionFunc func(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State

func (d decisionFunc) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	return d(cfg, queue)
}

// keepAll asks nothing of the decision module: VMs keep their states,
// and the optimizer's only job is restoring viability.
var keepAll = decisionFunc(func(*vjob.Configuration, []*vjob.VJob) map[string]vjob.State {
	return map[string]vjob.State{}
})

// fencedChurnCluster builds the two-slice scenario of the event tests:
// four 1-CPU nodes, a1 running on n00 and b1 on n02, with fences
// binding {a1,a2} to {n00,n01} and {b1,b2} to {n02,n03} so the
// partitioner always carves the same two slices.
func fencedChurnCluster(t *testing.T) (*vjob.Configuration, []PlacementRule, []*vjob.VJob) {
	t.Helper()
	cfg := mkCluster(4, 1, 4096)
	ja := vjob.NewVJob("ja", 0, vjob.NewVM("a1", "ja", 1, 1024))
	jb := vjob.NewVJob("jb", 0, vjob.NewVM("b1", "jb", 1, 1024))
	cfg.AddVM(ja.VMs[0])
	cfg.AddVM(jb.VMs[0])
	mustRun(t, cfg, "a1", "n00")
	mustRun(t, cfg, "b1", "n02")
	rules := []PlacementRule{
		Fence{VMs: []string{"a1", "a2"}, Nodes: []string{"n00", "n01"}},
		Fence{VMs: []string{"b1", "b2"}, Nodes: []string{"n02", "n03"}},
	}
	return cfg, rules, []*vjob.VJob{ja, jb}
}

// idlePairsCluster builds two fenced pairs of 1-CPU nodes, each pair
// hosting one busy VM and one idle VM on its first node, so raising an
// idle VM's demand overloads its node and the only fix is a migration
// inside the pair.
func idlePairsCluster(t *testing.T) (*vjob.Configuration, []PlacementRule, []*vjob.VJob) {
	t.Helper()
	cfg := mkCluster(4, 1, 4096)
	ja := vjob.NewVJob("ja", 0,
		vjob.NewVM("a1", "ja", 1, 1024), vjob.NewVM("a2", "ja", 0, 1024))
	jb := vjob.NewVJob("jb", 0,
		vjob.NewVM("b1", "jb", 1, 1024), vjob.NewVM("b2", "jb", 0, 1024))
	for _, v := range append(ja.VMs, jb.VMs...) {
		cfg.AddVM(v)
	}
	mustRun(t, cfg, "a1", "n00")
	mustRun(t, cfg, "a2", "n00")
	mustRun(t, cfg, "b1", "n02")
	mustRun(t, cfg, "b2", "n02")
	rules := []PlacementRule{
		Fence{VMs: []string{"a1", "a2"}, Nodes: []string{"n00", "n01"}},
		Fence{VMs: []string{"b1", "b2"}, Nodes: []string{"n02", "n03"}},
	}
	return cfg, rules, []*vjob.VJob{ja, jb}
}

// arrive adds a running VM mid-simulation, the churn generator's move.
func arrive(t *testing.T, cfg *vjob.Configuration, name, job, node string) {
	t.Helper()
	cfg.AddVM(vjob.NewVM(name, job, 1, 1024))
	mustRun(t, cfg, name, node)
}

func eventLoop(cfg *vjob.Configuration, rules []PlacementRule, jobs []*vjob.VJob) (*Loop, *fakeManaged) {
	a := &fakeManaged{fakeActuator: fakeActuator{cfg: cfg}, poolSecs: 1}
	l := &Loop{
		Decision:    keepAll,
		EventDriven: true,
		Debounce:    2,
		Optimizer:   Optimizer{Partitions: 2, Workers: 1},
		Rules:       rules,
		Queue:       func() []*vjob.VJob { return jobs },
	}
	return l, a
}

func TestEventLoopSolvesOnlyDirtySlice(t *testing.T) {
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	l.Start(a)
	a.run(4) // bootstrap: viable cluster, empty plan, loop idles

	// An arrival overloads n00; only slice {n00,n01} must be re-solved.
	a.Schedule(5, func() {
		arrive(t, cfg, "a2", "ja", "n00")
		l.Notify(a, Event{Kind: VMArrival, At: a.Now(), Nodes: []string{"n00"}, VMs: []string{"a2"}})
	})
	a.run(40)

	if !cfg.Viable() {
		t.Fatalf("cluster still non-viable: %v", cfg.Violations())
	}
	if cfg.HostOf("b1") != "n02" {
		t.Fatalf("clean slice was touched: b1 on %s", cfg.HostOf("b1"))
	}
	if len(l.Records) != 1 {
		t.Fatalf("switches = %d, want 1", len(l.Records))
	}
	if l.Records[0].Slices != 1 {
		t.Fatalf("switch solved %d slices, want 1", l.Records[0].Slices)
	}
	if l.Stats.FullSolves != 0 {
		t.Fatalf("incremental iteration fell back to a full solve: %+v", l.Stats)
	}
	if l.Stats.SliceSolves == 0 {
		t.Fatalf("no slice solve recorded: %+v", l.Stats)
	}

	// A later arrival on the other slice repairs it independently.
	a.Schedule(a.now+5, func() {
		arrive(t, cfg, "b2", "jb", "n02")
		l.Notify(a, Event{Kind: VMArrival, At: a.Now(), Nodes: []string{"n02"}, VMs: []string{"b2"}})
	})
	a.run(a.now + 40)
	if !cfg.Viable() {
		t.Fatalf("cluster still non-viable after second arrival: %v", cfg.Violations())
	}
	if len(l.Records) != 2 || l.Stats.FullSolves != 0 {
		t.Fatalf("records = %d, stats = %+v", len(l.Records), l.Stats)
	}
}

// TestEventLoopFixesEachSliceInPlace: two overloads in two fenced
// slices, one wake apart, are each fixed by a migration inside the
// slice.
func TestEventLoopFixesEachSliceInPlace(t *testing.T) {
	cfg, rules, jobs := idlePairsCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	l.Start(a)
	a.run(1)

	cfg.VM("a2").SetCPUDemand(1)
	l.Notify(a, Event{Kind: LoadChange, At: a.now, VMs: []string{"a2"}})
	a.run(20)
	if cfg.HostOf("a2") != "n01" {
		t.Fatalf("a2 on %s (want n01)", cfg.HostOf("a2"))
	}

	cfg.VM("b2").SetCPUDemand(1)
	l.Notify(a, Event{Kind: LoadChange, At: a.now, VMs: []string{"b2"}})
	a.run(40)
	if cfg.HostOf("b2") != "n03" {
		t.Fatalf("b2 on %s (want n03)", cfg.HostOf("b2"))
	}
	if !cfg.Viable() {
		t.Fatalf("non-viable: %v", cfg.Violations())
	}
}

func TestEventLoopStormDebounces(t *testing.T) {
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	l.Debounce = 5
	l.Start(a)
	a.run(2)

	// A storm of five events within the debounce window: one arrival
	// plus four load-change notifications for the same slice.
	a.Schedule(5, func() {
		arrive(t, cfg, "a2", "ja", "n00")
		l.Notify(a, Event{Kind: VMArrival, At: a.Now(), Nodes: []string{"n00"}, VMs: []string{"a2"}})
	})
	for i := 0; i < 4; i++ {
		at := 5.5 + float64(i)/10
		a.Schedule(at, func() {
			l.Notify(a, Event{Kind: LoadChange, At: a.Now(), VMs: []string{"a1"}})
		})
	}
	a.run(60)

	if !cfg.Viable() {
		t.Fatalf("cluster still non-viable: %v", cfg.Violations())
	}
	if len(l.Records) != 1 {
		t.Fatalf("five events produced %d switches, want 1", len(l.Records))
	}
	if l.Stats.Events != 5 {
		t.Fatalf("events = %d, want 5", l.Stats.Events)
	}
	if l.Stats.Coalesced < 4 {
		t.Fatalf("coalesced = %d, want the 4 follow-up events absorbed", l.Stats.Coalesced)
	}
}

func TestEventLoopDirtySetCoalescesAcrossOverlappingSlices(t *testing.T) {
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	l.Start(a)
	a.run(2)

	// Three events naming overlapping elements of the same slice — the
	// new VM, its node, and its neighbour — must collapse into one
	// slice solve, not three.
	a.Schedule(5, func() {
		arrive(t, cfg, "a2", "ja", "n00")
		l.Notify(a, Event{Kind: VMArrival, At: a.Now(), VMs: []string{"a2"}})
		l.Notify(a, Event{Kind: LoadChange, At: a.Now(), VMs: []string{"a1"}})
		l.Notify(a, Event{Kind: NodeDown, At: a.Now(), Nodes: []string{"n01"}})
	})
	a.run(30)

	if !cfg.Viable() {
		t.Fatalf("cluster still non-viable: %v", cfg.Violations())
	}
	if len(l.Records) != 1 {
		t.Fatalf("switches = %d, want 1", len(l.Records))
	}
	// One slice solve for the switch, plus at most one for the
	// post-switch convergence pass.
	if l.Stats.SliceSolves > 2 {
		t.Fatalf("slice solves = %d, want coalesced <= 2", l.Stats.SliceSolves)
	}
}

func TestEventLoopFailureEventAfterPlanCompleted(t *testing.T) {
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	l.Start(a)
	a.run(2)

	// No execution in flight: a stale action-failure event must not
	// attempt a repair — it schedules a debounced re-solve like any
	// other event.
	act := &plan.Migration{Machine: jobs[0].VMs[0], Src: "n00", Dst: "n01"}
	a.Schedule(5, func() {
		l.Notify(a, FailureEvent(a.Now(), act))
	})
	a.run(30)

	if l.Stats.Repairs != 0 || l.Stats.FailedRepairs != 0 {
		t.Fatalf("stale failure event triggered a repair: %+v", l.Stats)
	}
	if l.Stats.Events != 1 || l.Stats.Iterations < 2 {
		t.Fatalf("stale failure event not processed as a plain event: %+v", l.Stats)
	}
	if !cfg.Viable() {
		t.Fatalf("cluster non-viable: %v", cfg.Violations())
	}
}

// TestEventLoopStopDuringInFlightRepair: a loop halted by Ctx while a
// repair is due abandons it at the boundary, and neither the wake the
// completion arms nor a later Notify runs a round.
func TestEventLoopStopDuringInFlightRepair(t *testing.T) {
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	ctx, cancel := context.WithCancel(context.Background())
	l.Ctx = ctx
	stub := &fakeExec{a: a, plan: &plan.Plan{Src: cfg}}
	l.exec, l.phase = stub, phaseRepairDue
	l.dirty.add(Event{Kind: ActionFailure, VMs: []string{jobs[0].VMs[0].Name}, Nodes: []string{"n00"}})

	calls := l.Stats.SolverCalls
	cancel()
	l.poolBoundary(a)

	if l.Stats.SolverCalls != calls {
		t.Fatalf("repair solved after the halt: %+v", l.Stats)
	}
	if a.splices != 0 {
		t.Fatal("repair spliced after the halt")
	}
	// And the armed machinery must not wake a halted loop either.
	l.next(a)
	l.Notify(a, Event{Kind: LoadChange, VMs: []string{"a1"}})
	a.run(100)
	if l.Stats.Iterations != 0 || l.Stats.SolverCalls != calls {
		t.Fatalf("halted loop iterated: %+v", l.Stats)
	}
}

// crossSliceRepairCluster is the cross-slice dependency scenario: a
// monolithic-origin plan mid-execution whose pool 0 moves y from slice
// B into slice A's n00 (freeing n03) and whose pool 1 moves z into the
// freed n03. A failure in slice A requests a repair at the boundary;
// the re-solved slice A covers n00/n01, so y's migration is dropped —
// and z's kept migration then depends on an action that no longer
// exists.
func crossSliceRepairCluster(t *testing.T) (*Loop, *fakeManaged, *vjob.Configuration) {
	t.Helper()
	cfg := mkCluster(4, 1, 2048)
	ja := vjob.NewVJob("ja", 0,
		vjob.NewVM("a1", "ja", 1, 1024), vjob.NewVM("a2", "ja", 1, 1024))
	jb := vjob.NewVJob("jb", 0,
		vjob.NewVM("y", "jb", 0, 2048), vjob.NewVM("z", "jb", 0, 2048))
	for _, v := range append(ja.VMs, jb.VMs...) {
		cfg.AddVM(v)
	}
	// Slice A (n00, n01): both a-VMs on n00 — a CPU violation the
	// dirty-slice solve will fix. Slice B (n02, n03): y fills n03, z
	// fills n02.
	mustRun(t, cfg, "a1", "n00")
	mustRun(t, cfg, "a2", "n00")
	mustRun(t, cfg, "y", "n03")
	mustRun(t, cfg, "z", "n02")
	rules := []PlacementRule{
		Fence{VMs: []string{"a1", "a2"}, Nodes: []string{"n00", "n01"}},
		Fence{VMs: []string{"y", "z"}, Nodes: []string{"n02", "n03"}},
	}
	l, a := eventLoop(cfg, rules, []*vjob.VJob{ja, jb})
	stub := &fakeExec{a: a, plan: &plan.Plan{Src: cfg, Pools: []plan.Pool{
		{&plan.Migration{Machine: jb.VMs[0], Src: "n03", Dst: "n00"}},
		{&plan.Migration{Machine: jb.VMs[1], Src: "n02", Dst: "n03"}},
	}}}
	l.exec, l.phase = stub, phaseRepairDue
	l.dirty.add(Event{Kind: ActionFailure, VMs: []string{"a2"}, Nodes: []string{"n00"}})
	return l, a, cfg
}

// TestEventLoopRepairWidensOverCrossSliceDependency is the positive
// pin of the cross-slice repair fix: the broken dependency chain
// (z's kept migration stranded by dropping y's) is absorbed by
// widening the repair region instead of falling back to a monolithic
// re-solve.
func TestEventLoopRepairWidensOverCrossSliceDependency(t *testing.T) {
	l, a, cfg := crossSliceRepairCluster(t)

	l.poolBoundary(a)
	if l.Stats.Repairs != 1 || l.Stats.FailedRepairs != 0 {
		t.Fatalf("widened repair did not splice: %+v", l.Stats)
	}
	if l.Stats.WidenedRepairs != 1 || l.Stats.RepairExpansions == 0 {
		t.Fatalf("widening not recorded: %+v", l.Stats)
	}
	if l.Stats.FullSolves != 0 {
		t.Fatalf("widened repair fell back to a monolithic solve: %+v", l.Stats)
	}
	if a.splices != 1 {
		t.Fatalf("splices = %d, want 1", a.splices)
	}
	// The spliced remainder must drop the whole broken chain: neither
	// y's nor z's stale migration survives in the execution.
	for _, act := range l.exec.Plan().Actions() {
		if name := act.VM().Name; name == "y" || name == "z" {
			t.Fatalf("stale chain action survived the splice: %s", act)
		}
	}

	// The execution completes; the widened region stayed dirty, so the
	// follow-up pass converges the cluster.
	l.next(a)
	a.run(100)
	if !cfg.Viable() {
		t.Fatalf("loop never converged after the widened splice: %v", cfg.Violations())
	}
	if n := len(cfg.RunningOn("n00")); n > 1 {
		t.Fatalf("slice A still overloaded: %d VMs on n00", n)
	}
	if l.Stats.Iterations == 0 {
		t.Fatal("no follow-up pass ran")
	}
}

// TestEventLoopRepairRefusalFallsBackToFullResolve pins the fallback
// of a repair whose splice the execution refuses (after widening over
// the broken chain and solving): the refusal counts a FailedRepair,
// leaves the executing plan alone, and the loop converges through the
// post-execution re-solve instead of corrupting the plan.
func TestEventLoopRepairRefusalFallsBackToFullResolve(t *testing.T) {
	l, a, cfg := crossSliceRepairCluster(t)
	l.exec.(*fakeExec).refuse = true
	executing := l.exec.Plan()

	l.poolBoundary(a)
	if l.Stats.FailedRepairs != 1 || l.Stats.Repairs != 0 || l.Stats.WidenedRepairs != 0 {
		t.Fatalf("refusal not counted as failed repair: %+v", l.Stats)
	}
	if a.splices != 0 || l.exec.Plan() != executing {
		t.Fatal("refused repair still spliced the plan")
	}

	// The execution completes as planned; the pending re-solve then
	// fixes the region in a fresh pass.
	l.next(a)
	a.run(100)
	if !cfg.Viable() {
		t.Fatalf("loop never converged after the refusal: %v", cfg.Violations())
	}
	if n := len(cfg.RunningOn("n00")); n > 1 {
		t.Fatalf("slice A still overloaded: %d VMs on n00", n)
	}
	if l.Stats.Iterations == 0 {
		t.Fatal("no follow-up pass ran")
	}
}

// TestEventLoopFallbackResolvePendingForcesFullPass pins the fallback
// contract on its own: the owed pass alone — even with no element left
// in the dirty-set at wake-up — must arm the post-execution wake and
// drive a full incremental pass. Before the fix, the incremental round
// dropped the pending re-solve and returned early when the dirty
// elements had vanished, leaving the refused region violated until an
// unrelated event.
func TestEventLoopFallbackResolvePendingForcesFullPass(t *testing.T) {
	l, a, cfg := crossSliceRepairCluster(t)
	l.exec.(*fakeExec).refuse = true

	l.poolBoundary(a)
	if !l.dirty.owed {
		t.Fatalf("fallback did not owe a pass: %+v", l.Stats)
	}
	// Simulate the dirty elements being consumed elsewhere: the owed
	// pass must carry the re-solve on its own.
	l.dirty.nodes, l.dirty.vms = nil, nil
	l.next(a)
	if l.phase != phaseArmed {
		t.Fatal("the owed pass alone did not arm the post-execution wake")
	}
	a.run(100)
	if l.Stats.Iterations == 0 {
		t.Fatalf("pending re-solve never ran an incremental pass: %+v", l.Stats)
	}
	if l.Stats.FullSolves == 0 {
		t.Fatalf("pending re-solve with an empty dirty-set must go monolithic: %+v", l.Stats)
	}
	if !cfg.Viable() {
		t.Fatalf("pending re-solve never converged the cluster: %v", cfg.Violations())
	}
}

func TestEventLoopRepairsInFlightPlan(t *testing.T) {
	// Two arrivals dirty both slices, so the switch carries one
	// migration per slice in one pool. a2's migration fails: the loop
	// must record the failure, splice a repair at the pool boundary
	// (or fall back to a full re-solve), and converge to viability —
	// never abort with the cluster overloaded.
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	a.failVMs = map[string]bool{}
	l.Start(a)
	a.run(2)

	a.Schedule(5, func() {
		arrive(t, cfg, "a2", "ja", "n00")
		arrive(t, cfg, "b2", "jb", "n02")
		a.failVMs["a2"] = true // the first attempt on a2 will fail
		l.Notify(a, Event{Kind: VMArrival, At: a.Now(), VMs: []string{"a2", "b2"}, Nodes: []string{"n00", "n02"}})
	})
	// The switch executes its single pool at t=8 (wake at 7 + 1 s per
	// pool); clear the fault right after, so the spliced retry passes.
	a.Schedule(8.5, func() { a.failVMs = map[string]bool{} })
	a.run(120)

	if !cfg.Viable() {
		t.Fatalf("cluster still non-viable: %v", cfg.Violations())
	}
	if l.Stats.Repairs == 0 {
		t.Fatalf("failure did not trigger an in-flight repair: %+v", l.Stats)
	}
	if a.splices == 0 {
		t.Fatal("repair did not splice the executing plan")
	}
	if l.Stats.FullSolves != 0 {
		t.Fatalf("repair fell back to a full solve: %+v", l.Stats)
	}
	// A repair must not discharge the dirty-set: the fixpoint
	// follow-up pass still runs once the execution completes
	// (bootstrap + event wake + >=1 post-repair pass).
	if l.Stats.Iterations < 3 {
		t.Fatalf("no follow-up pass after the repair: %+v", l.Stats)
	}
	for _, j := range jobs {
		for _, v := range j.VMs {
			if cfg.VM(v.Name) != nil && cfg.StateOf(v.Name) != vjob.Running {
				t.Fatalf("%s ended %v", v.Name, cfg.StateOf(v.Name))
			}
		}
	}
}

// TestPeriodicLoopRunsFailuresToCompletion: the periodic loop executes
// through the same callbacks as the event-driven one, but a failure's
// Notify is a no-op there, so its pool boundaries never repair. The
// failure is counted in the switch record and the next period's full
// round deals with the cluster.
func TestPeriodicLoopRunsFailuresToCompletion(t *testing.T) {
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	l.EventDriven = false
	l.Interval = 30
	a.failVMs = map[string]bool{"a1": true, "a2": true}
	l.Start(a) // the bootstrap round rests: the cluster is viable
	a.Schedule(5, func() { arrive(t, cfg, "a2", "ja", "n00") })
	a.run(40) // the round at 30 migrates a1 or a2; the action fails

	if len(l.Records) != 1 || l.Records[0].Failures != 1 || l.Records[0].Actions != 1 {
		t.Fatalf("records = %+v, want one switch whose one action failed", l.Records)
	}
	if l.Stats.Repairs != 0 || l.Stats.FailedRepairs != 0 || a.splices != 0 {
		t.Fatalf("a periodic loop attempted a repair: stats %+v, %d splices", l.Stats, a.splices)
	}
	if l.Stats.Events != 0 {
		t.Fatalf("a periodic loop counted %d events", l.Stats.Events)
	}
	if l.phase != phaseIdle || l.Execution() != nil {
		t.Fatalf("after the switch: phase %v, execution %v", l.phase, l.Execution())
	}
}
