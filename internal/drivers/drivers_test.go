package drivers

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/duration"
	"cwcs/internal/plan"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

func newSim(t *testing.T, nodes, cpu, mem int) *sim.Cluster {
	t.Helper()
	cfg := vjob.NewConfiguration()
	for i := 0; i < nodes; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("n%02d", i), cpu, mem))
	}
	c := sim.New(cfg, duration.Default())
	// Every driver run is audited: executing a plan must never push a
	// node past its capacities beyond the initial over-commitment.
	w := sim.WatchInvariants(c)
	t.Cleanup(func() {
		if err := w.Err(); err != nil {
			t.Errorf("invariants violated: %v", err)
		}
	})
	return c
}

// planDst replays the plan on a snapshot of its source and returns the
// configuration it must leave behind. Call it BEFORE executing: the
// plan's Src is the live cluster configuration.
func planDst(t *testing.T, p *plan.Plan) *vjob.Configuration {
	t.Helper()
	want, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// assertReaches checks that the executed plan left the cluster exactly
// in the destination captured by planDst.
func assertReaches(t *testing.T, c *sim.Cluster, want *vjob.Configuration) {
	t.Helper()
	if got := c.Config(); !got.Equal(want) {
		t.Fatalf("cluster after execution:\n%swant destination:\n%s", got, want)
	}
}

func TestExecuteSequentialPools(t *testing.T) {
	// Figure 7 scenario executed end to end: the migration must start
	// only after the suspend completes.
	c := newSim(t, 2, 2, 3072)
	vm1 := vjob.NewVM("vm1", "a", 1, 2048)
	vm2 := vjob.NewVM("vm2", "b", 1, 2048)
	cfg := c.Config()
	cfg.AddVM(vm1)
	cfg.AddVM(vm2)
	if err := cfg.SetRunning("vm1", "n00"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetRunning("vm2", "n01"); err != nil {
		t.Fatal(err)
	}
	dst := cfg.Clone()
	if err := dst.SetSleeping("vm2", "n01"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetRunning("vm1", "n01"); err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(cfg, dst)
	if err != nil {
		t.Fatal(err)
	}

	wantDst := planDst(t, p)
	var rep Report
	doneCalled := false
	Start(c, p, Callbacks{Done: func(r Report) { rep = r; doneCalled = true }})
	c.Run(10_000)
	if !doneCalled {
		t.Fatal("execution never completed")
	}
	if len(rep.Errs) != 0 {
		t.Fatalf("errors: %v", rep.Errs)
	}
	m := duration.Default()
	want := m.Suspend(2048, duration.Local).Seconds() + m.Migrate(2048).Seconds()
	if math.Abs(rep.Duration()-want) > 1e-6 {
		t.Fatalf("duration = %v, want %v (suspend then migrate)", rep.Duration(), want)
	}
	if c.Config().HostOf("vm1") != "n01" || c.Config().StateOf("vm2") != vjob.Sleeping {
		t.Fatal("destination not reached")
	}
	assertReaches(t, c, wantDst)
	if rep.String() == "" {
		t.Fatal("report string empty")
	}
}

func TestPipelinedSuspends(t *testing.T) {
	// Three suspends of one vjob start 1 s apart, ordered by host.
	c := newSim(t, 3, 2, 4096)
	cfg := c.Config()
	j := vjob.NewVJob("j", 0,
		vjob.NewVM("j-1", "", 1, 1024),
		vjob.NewVM("j-2", "", 1, 1024),
		vjob.NewVM("j-3", "", 1, 1024))
	for i, v := range j.VMs {
		cfg.AddVM(v)
		if err := cfg.SetRunning(v.Name, fmt.Sprintf("n%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	dst := cfg.Clone()
	for i, v := range j.VMs {
		if err := dst.SetSleeping(v.Name, fmt.Sprintf("n%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := plan.Build(cfg, dst)
	if err != nil {
		t.Fatal(err)
	}
	wantDst := planDst(t, p)
	var rep Report
	Start(c, p, Callbacks{Done: func(r Report) { rep = r }})
	c.Run(10_000)
	// Last suspend starts 2 s after the first; total = 2 + suspend.
	want := 2*PipelineDelay + duration.Default().Suspend(1024, duration.Local).Seconds()
	if math.Abs(rep.Duration()-want) > 1e-6 {
		t.Fatalf("duration = %v, want %v (pipelined)", rep.Duration(), want)
	}
	assertReaches(t, c, wantDst)
}

func TestExecuteReportsActionErrors(t *testing.T) {
	c := newSim(t, 2, 2, 4096)
	vm := vjob.NewVM("vm1", "a", 1, 1024)
	c.Config().AddVM(vm)
	if err := c.Config().SetRunning("vm1", "n00"); err != nil {
		t.Fatal(err)
	}
	// Hand-built plan with a wrong source: the driver must surface the
	// failure.
	p := &plan.Plan{Src: c.Snapshot(), Pools: []plan.Pool{{
		&plan.Migration{Machine: vm, Src: "n01", Dst: "n00"},
	}}}
	var rep Report
	Start(c, p, Callbacks{Done: func(r Report) { rep = r }})
	c.Run(1000)
	if len(rep.Errs) != 1 {
		t.Fatalf("errs = %v", rep.Errs)
	}
}

func TestEmptyPlanCompletesImmediately(t *testing.T) {
	c := newSim(t, 1, 1, 1024)
	done := false
	Start(c, &plan.Plan{Src: c.Snapshot()}, Callbacks{Done: func(Report) { done = true }})
	c.Run(1)
	if !done {
		t.Fatal("empty plan never completed")
	}
}

// TestControlLoopEndToEnd wires sim + drivers + sched + core: an
// overloaded cluster (three busy vjobs, two CPUs) is resolved by
// suspending the lowest-priority vjob; when a vjob terminates, the
// sleeping one is resumed and everything completes.
func TestControlLoopEndToEnd(t *testing.T) {
	c := newSim(t, 2, 1, 8192)
	cfg := c.Config()
	jobs := make([]*vjob.VJob, 3)
	for i := range jobs {
		name := fmt.Sprintf("j%d", i)
		v := vjob.NewVM(name+"-1", name, 1, 1024)
		jobs[i] = vjob.NewVJob(name, i, v)
		cfg.AddVM(v)
		c.SetWorkload(v.Name, []sim.Phase{{CPU: 1, Seconds: 300}})
	}
	// j0 and j1 run; j2 waits (cluster full).
	if err := cfg.SetRunning("j0-1", "n00"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetRunning("j1-1", "n01"); err != nil {
		t.Fatal(err)
	}

	act := &Actuator{C: c}
	loop := &core.Loop{
		Decision: sched.Consolidation{},
		Interval: 30,
		Queue: func() []*vjob.VJob {
			var live []*vjob.VJob
			for _, j := range jobs {
				if !c.VJobDone(j) {
					live = append(live, j)
				}
			}
			return live
		},
		Done: func() bool {
			for _, j := range jobs {
				if !c.VJobDone(j) {
					return false
				}
			}
			return true
		},
	}
	doneAt := -1.0
	// Terminate finished vjobs between iterations (the application
	// signals Entropy, which stops the vjob).
	var reap func()
	reap = func() {
		all := true
		for _, j := range jobs {
			if !c.VJobDone(j) {
				all = false
			}
		}
		if all {
			if doneAt < 0 {
				doneAt = c.Now()
			}
			return // stop rescheduling: simulation can quiesce
		}
		for _, j := range jobs {
			if c.VJobDone(j) {
				for _, v := range j.VMs {
					if cfg.StateOf(v.Name) == vjob.Running {
						c.StartAction(&plan.Stop{Machine: v, On: cfg.HostOf(v.Name)}, nil)
					}
				}
			}
		}
		c.Schedule(c.Now()+5, reap)
	}
	c.Schedule(5, reap)
	loop.Start(act)
	c.Run(100_000)

	for _, j := range jobs {
		if !c.VJobDone(j) {
			t.Fatalf("%s never completed (remaining %v)", j.Name, c.RemainingWork(j.VMs[0].Name))
		}
	}
	// j2 cannot have run before some capacity freed: with 300 s of
	// work per vjob and 2 CPUs, total completion must exceed 300 s but
	// stay well under a serial 900 s.
	if doneAt < 300 || doneAt > 900 {
		t.Fatalf("completion at %v, want within (300, 900)", doneAt)
	}
}

// unmodeledAction is a plan.Action the duration model cannot time.
type unmodeledAction struct{ m *vjob.VM }

func (u *unmodeledAction) VM() *vjob.VM                        { return u.m }
func (u *unmodeledAction) Kind() plan.Kind                     { return plan.Kind(-1) }
func (u *unmodeledAction) Nodes() (from, to string)            { return "", "" }
func (u *unmodeledAction) Cost() int                           { return 0 }
func (u *unmodeledAction) FeasibleIn(*vjob.Configuration) bool { return true }
func (u *unmodeledAction) Apply(*vjob.Configuration) error     { return nil }
func (u *unmodeledAction) String() string                      { return "unmodeled(" + u.m.Name + ")" }

// TestUnknownActionSurfacesAsFailedAction: a plan carrying an action
// the duration model does not know used to panic the simulator (and
// with it entropyd). It must now complete the execution with that one
// action recorded as failed, while the rest of the plan still runs.
func TestUnknownActionSurfacesAsFailedAction(t *testing.T) {
	c := newSim(t, 2, 2, 4096)
	vm1 := vjob.NewVM("vm1", "a", 1, 1024)
	vm2 := vjob.NewVM("vm2", "b", 1, 1024)
	c.Config().AddVM(vm1)
	c.Config().AddVM(vm2)
	if err := c.Config().SetRunning("vm1", "n00"); err != nil {
		t.Fatal(err)
	}
	if err := c.Config().SetRunning("vm2", "n00"); err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Src: c.Config(), Pools: []plan.Pool{
		{&unmodeledAction{m: vm1}, &plan.Migration{Machine: vm2, Src: "n00", Dst: "n01"}},
	}}
	var rep Report
	var failed []plan.Action
	e := Start(c, p, Callbacks{
		Done:    func(r Report) { rep = r },
		Failure: func(a plan.Action, err error) { failed = append(failed, a) },
	})
	c.Run(1000)
	if !e.Finished() {
		t.Fatal("execution never finished")
	}
	if len(rep.Errs) != 1 {
		t.Fatalf("report errs = %v, want exactly the unmodeled action's", rep.Errs)
	}
	var ue *duration.UnknownActionError
	if !errors.As(rep.Errs[0], &ue) {
		t.Fatalf("err = %v, want *duration.UnknownActionError", rep.Errs[0])
	}
	if len(failed) != 1 || failed[0].VM().Name != "vm1" {
		t.Fatalf("failure callback saw %v, want the unmodeled action", failed)
	}
	// The healthy action of the same pool still executed.
	if c.Config().HostOf("vm2") != "n01" {
		t.Fatal("migration sharing the pool did not run")
	}
	for _, st := range e.Status() {
		want := ActionDone
		if st.VM == "vm1" {
			want = ActionFailed
		}
		if st.Phase != want {
			t.Errorf("%s: phase %v, want %v", st.Action, st.Phase, want)
		}
	}
}
