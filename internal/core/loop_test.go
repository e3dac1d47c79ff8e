package core

import (
	"container/heap"
	"context"
	"errors"
	"testing"

	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// fakeActuator drives the loop on a synthetic clock: plans apply
// instantly to the configuration, with a fixed virtual duration. Its
// executions report no failure callback and no pool boundary, and are
// finished from the start: nothing is left to repair.
type fakeActuator struct {
	now      float64
	cfg      *vjob.Configuration
	execSecs float64
	events   fakeQueue
	seq      int
	executed []*plan.Plan
}

// fakeEvent is one scheduled callback. kind labels what scheduled it
// ("pool" and "done" for executions, "full" and "debounce" for the
// loop's timers under a phaseActuator, empty otherwise); gen is the
// wake generation a debounce timer was armed with.
type fakeEvent struct {
	at   float64
	seq  int
	kind string
	gen  int
	fn   func()
}

type fakeQueue []*fakeEvent

func (q fakeQueue) Len() int { return len(q) }
func (q fakeQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q fakeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *fakeQueue) Push(x interface{}) { *q = append(*q, x.(*fakeEvent)) }
func (q *fakeQueue) Pop() interface{} {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func (a *fakeActuator) Now() float64 { return a.now }

func (a *fakeActuator) Schedule(at float64, fn func()) { a.schedule(at, "", fn) }

func (a *fakeActuator) schedule(at float64, kind string, fn func()) *fakeEvent {
	a.seq++
	e := &fakeEvent{at: at, seq: a.seq, kind: kind, fn: fn}
	heap.Push(&a.events, e)
	return e
}

func (a *fakeActuator) Observe() *vjob.Configuration { return a.cfg.Clone() }

func (a *fakeActuator) ExecuteManaged(p *plan.Plan, _ func(plan.Action, error), _ func(), done func(float64, int)) Execution {
	a.executed = append(a.executed, p)
	failures := 0
	for _, action := range p.Actions() {
		if err := action.Apply(a.cfg); err != nil {
			failures++
		}
	}
	dur := a.execSecs
	a.schedule(a.now+dur, "done", func() { done(dur, failures) })
	return appliedExec{p}
}

// appliedExec is a plan that fakeActuator has already applied.
type appliedExec struct{ p *plan.Plan }

func (e appliedExec) Remaining() *plan.Plan   { return &plan.Plan{Src: e.p.Src} }
func (e appliedExec) Splice(*plan.Plan) error { return errors.New("fake: splice after completion") }
func (e appliedExec) Plan() *plan.Plan        { return e.p }
func (e appliedExec) Finished() bool          { return true }

// step runs the earliest pending event, advancing the clock to it, and
// returns it; nil when nothing is pending.
func (a *fakeActuator) step() *fakeEvent {
	if len(a.events) == 0 {
		return nil
	}
	e := heap.Pop(&a.events).(*fakeEvent)
	if e.at > a.now {
		a.now = e.at
	}
	e.fn()
	return e
}

// fire runs the earliest pending event of the kind, advancing the
// clock to it; it reports whether there was one.
func (a *fakeActuator) fire(kind string) bool {
	best := -1
	for i, e := range a.events {
		if e.kind == kind && (best < 0 || a.events.Less(i, best)) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	e := heap.Remove(&a.events, best).(*fakeEvent)
	if e.at > a.now {
		a.now = e.at
	}
	e.fn()
	return true
}

// run processes events until the horizon or quiescence.
func (a *fakeActuator) run(until float64) {
	for len(a.events) > 0 {
		e := heap.Pop(&a.events).(*fakeEvent)
		if e.at > until {
			return
		}
		if e.at > a.now {
			a.now = e.at
		}
		e.fn()
	}
}

// scriptedDecision returns canned targets, one per call.
type scriptedDecision struct {
	calls   int
	targets []map[string]vjob.State
}

func (d *scriptedDecision) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	i := d.calls
	d.calls++
	if i < len(d.targets) {
		return d.targets[i]
	}
	return map[string]vjob.State{}
}

func loopCluster(t *testing.T) (*vjob.Configuration, []*vjob.VJob) {
	t.Helper()
	cfg := mkCluster(2, 1, 4096)
	j := vjob.NewVJob("j", 0, vjob.NewVM("j-1", "", 1, 1024))
	cfg.AddVM(j.VMs[0])
	return cfg, []*vjob.VJob{j}
}

func TestLoopExecutesSwitchAndRecords(t *testing.T) {
	cfg, jobs := loopCluster(t)
	a := &fakeActuator{cfg: cfg, execSecs: 12}
	dec := &scriptedDecision{targets: []map[string]vjob.State{
		{"j": vjob.Running},
	}}
	var got []SwitchRecord
	l := &Loop{
		Decision: dec,
		Interval: 30,
		Queue:    func() []*vjob.VJob { return jobs },
		OnSwitch: func(r SwitchRecord) { got = append(got, r) },
	}
	l.Start(a)
	a.run(100)
	if cfg.StateOf("j-1") != vjob.Running {
		t.Fatal("loop did not start the vjob")
	}
	if len(l.Records) != 1 || len(got) != 1 {
		t.Fatalf("records = %d, callbacks = %d", len(l.Records), len(got))
	}
	if got[0].Duration != 12 || got[0].Actions != 1 {
		t.Fatalf("record = %+v", got[0])
	}
	// Subsequent iterations produce empty decisions: no more records,
	// but the decision module keeps being polled every interval.
	if dec.calls < 2 {
		t.Fatalf("decision polled %d times", dec.calls)
	}
}

func TestLoopSkipsEmptyPlans(t *testing.T) {
	cfg, jobs := loopCluster(t)
	a := &fakeActuator{cfg: cfg}
	l := &Loop{
		Decision: &scriptedDecision{}, // always empty targets
		Interval: 10,
		Queue:    func() []*vjob.VJob { return jobs },
	}
	l.Start(a)
	a.run(55)
	if len(l.Records) != 0 {
		t.Fatalf("empty decisions produced %d switches", len(l.Records))
	}
	if len(a.executed) != 0 {
		t.Fatal("empty plan executed")
	}
}

// TestLoopStops: canceling Ctx halts a periodic loop; no decision
// runs after it.
func TestLoopStops(t *testing.T) {
	cfg, jobs := loopCluster(t)
	a := &fakeActuator{cfg: cfg}
	dec := &scriptedDecision{}
	ctx, cancel := context.WithCancel(context.Background())
	l := &Loop{Decision: dec, Interval: 10, Ctx: ctx, Queue: func() []*vjob.VJob { return jobs }}
	l.Start(a)
	a.run(25) // a few iterations
	calls := dec.calls
	cancel()
	a.run(200)
	if dec.calls != calls {
		t.Fatalf("loop kept deciding after Ctx was canceled (%d -> %d)", calls, dec.calls)
	}
}

func TestLoopDonePredicate(t *testing.T) {
	cfg, jobs := loopCluster(t)
	a := &fakeActuator{cfg: cfg}
	dec := &scriptedDecision{}
	done := false
	l := &Loop{
		Decision: dec,
		Interval: 10,
		Queue:    func() []*vjob.VJob { return jobs },
		Done:     func() bool { return done },
	}
	l.Start(a)
	a.run(35)
	before := dec.calls
	done = true
	a.run(500)
	if dec.calls != before {
		t.Fatalf("loop continued after Done (%d -> %d)", before, dec.calls)
	}
}

func TestLoopDefaultInterval(t *testing.T) {
	l := &Loop{}
	if l.interval() != 30 {
		t.Fatalf("default interval = %v", l.interval())
	}
	l.Interval = 7
	if l.interval() != 7 {
		t.Fatalf("interval = %v", l.interval())
	}
}

func TestLoopCountsFailures(t *testing.T) {
	cfg, jobs := loopCluster(t)
	// Sabotage: the actuator executes against a configuration where
	// the VM was already moved, so the planned run fails on apply.
	a := &fakeActuator{cfg: cfg}
	dec := &scriptedDecision{targets: []map[string]vjob.State{
		{"j": vjob.Running},
	}}
	l := &Loop{Decision: dec, Interval: 10, Queue: func() []*vjob.VJob { return jobs }}
	// Pre-apply the run so the loop's plan conflicts.
	preRun := &plan.Run{Machine: jobs[0].VMs[0], On: "n00"}
	l.Start(a)
	// Before the first iteration executes, mutate the live config.
	a.Schedule(0, func() {})
	if err := preRun.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	a.run(50)
	if len(l.Records) == 1 && l.Records[0].Failures == 0 {
		t.Fatalf("conflicting action not counted as failure: %+v", l.Records[0])
	}
}
