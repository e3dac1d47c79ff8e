package testbed

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cwcs/internal/api"
	"cwcs/internal/core"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// quickOptions is a cluster small enough that every solve ends on a
// proof long before the budget: one worker, so runs repeat exactly.
func quickOptions() Options {
	return Options{
		Nodes: 12, NodeCPU: 2, NodeMemory: 4096,
		VJobs: 3, VMsPerVJob: 3,
		WorkScale:   0.1,
		Seed:        11,
		Decision:    sched.Consolidation{},
		Optimizer:   core.Optimizer{Timeout: time.Minute, Workers: 1},
		EventDriven: true,
		Debounce:    2,
	}
}

// recordFeed replaces the feed with a recorder: nothing reaches the
// loop, every event is kept.
func recordFeed(tb *Testbed) *[]core.Event {
	var got []core.Event
	tb.Feed = func(ev core.Event) { got = append(got, ev) }
	return &got
}

func spec(name string, vms ...string) api.VJobSpec {
	s := api.VJobSpec{Name: name}
	for _, v := range vms {
		s.VMs = append(s.VMs, api.VMSpec{Name: v, CPU: 1, Memory: 512,
			Phases: []api.PhaseSpec{{CPU: 1, Seconds: 30}}})
	}
	return s
}

// TestSubmitPriorityNeverReused: withdrawing vjobs shrinks the queue,
// so a priority taken from its length would be handed out twice and a
// later submission would overtake an earlier one still waiting. The
// harness counts submissions instead.
func TestSubmitPriorityNeverReused(t *testing.T) {
	o := quickOptions()
	o.VJobs = 0
	tb := New(o)
	recordFeed(tb)
	srv := tb.ControlPlane(&sync.Mutex{})
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := srv.Submit(spec(name, name+"-0")); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b"} {
		if err := srv.Withdraw(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Submit(spec("e", "e-0")); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, j := range sched.SortQueue(nil, tb.Jobs()) {
		order = append(order, j.Name)
	}
	if got := strings.Join(order, ","); got != "c,d,e" {
		t.Fatalf("FCFS order after withdrawals = %s, want c,d,e", got)
	}
	if srv.QueueDepth() != 3 {
		t.Fatalf("queue depth %d, want 3", srv.QueueDepth())
	}
}

// TestSubmitWithdrawRefusals covers what the control plane turns down
// and what it announces when it does not.
func TestSubmitWithdrawRefusals(t *testing.T) {
	o := quickOptions()
	o.VJobs = 1
	tb := New(o)
	events := recordFeed(tb)
	cfg := tb.Cluster.Config()
	srv := tb.ControlPlane(&sync.Mutex{})

	if err := srv.Submit(spec("vjob000", "fresh-0")); err == nil {
		t.Error("duplicate vjob name accepted")
	}
	if err := srv.Submit(spec("other", "vjob000-vm00")); err == nil {
		t.Error("VM name already in the configuration accepted")
	}
	if cfg.VM("fresh-0") != nil || len(tb.Jobs()) != 1 || len(*events) != 0 {
		t.Fatalf("a refused submission left traces: %d jobs, events %v", len(tb.Jobs()), *events)
	}
	if err := srv.Withdraw("ghost"); err == nil {
		t.Error("unknown vjob withdrawn")
	}

	if err := srv.Submit(spec("op", "op-0", "op-1")); err != nil {
		t.Fatal(err)
	}
	if ev := (*events)[0]; ev.Kind != core.VMArrival || !reflect.DeepEqual(ev.VMs, []string{"op-0", "op-1"}) {
		t.Fatalf("submission announced as %+v", ev)
	}
	if err := cfg.SetRunning("op-0", "node000"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Withdraw("op"); err == nil {
		t.Error("placed vjob withdrawn")
	}
	if cfg.VM("op-1") == nil || len(tb.Jobs()) != 2 {
		t.Fatal("a refused withdrawal removed something")
	}
	if err := cfg.SetWaiting("op-0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Withdraw("op"); err != nil {
		t.Fatal(err)
	}
	if ev := (*events)[1]; ev.Kind != core.VMDeparture || cfg.VM("op-0") != nil || cfg.VM("op-1") != nil {
		t.Fatalf("withdrawal left %v, announced as %+v", cfg.VM("op-0"), ev)
	}
}

// TestOnUndrainBringsOfflineNodeBack: the undrain hook restores a node
// that was taken out of the configuration after its evacuation, and
// leaves a node that never left alone.
func TestOnUndrainBringsOfflineNodeBack(t *testing.T) {
	o := quickOptions()
	o.VJobs = 0
	tb := New(o)
	srv := tb.ControlPlane(&sync.Mutex{})
	c := tb.Cluster
	if err := c.SetNodeOffline("node003"); err != nil {
		t.Fatal(err)
	}
	if c.Config().Node("node003") != nil {
		t.Fatal("node003 still in the configuration")
	}
	if err := srv.OnUndrain("node003"); err != nil || c.Config().Node("node003") == nil {
		t.Fatalf("node003 not brought back: %v", err)
	}
	if err := srv.OnUndrain("node004"); err != nil {
		t.Fatalf("undrain of an online node: %v", err)
	}
}

// TestDrainUndrainEvents: a drain order emits one NodeDown naming
// exactly the VMs running on the node at that instant, lifting it one
// NodeUp, and repeating either — or lifting an order never given —
// emits nothing (the flap and burst planners rely on it).
func TestDrainUndrainEvents(t *testing.T) {
	o := quickOptions()
	o.VJobs = 2
	tb := New(o)
	events := recordFeed(tb)
	cfg := tb.Cluster.Config()
	for vm, node := range map[string]string{"vjob000-vm00": "node001", "vjob000-vm01": "node001", "vjob001-vm00": "node002"} {
		if err := cfg.SetRunning(vm, node); err != nil {
			t.Fatal(err)
		}
	}
	if err := cfg.SetRunning("vjob000-vm02", "node001"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetSleeping("vjob000-vm02", "node001"); err != nil {
		t.Fatal(err)
	}

	tb.Undrain("node001")
	if len(*events) != 0 {
		t.Fatalf("undrain of a node never drained emitted %v", *events)
	}
	tb.Drain("node001")
	tb.Drain("node001")
	if len(*events) != 1 {
		t.Fatalf("two drain orders emitted %d events", len(*events))
	}
	ev := (*events)[0]
	if ev.Kind != core.NodeDown || !reflect.DeepEqual(ev.Nodes, []string{"node001"}) ||
		!reflect.DeepEqual(ev.VMs, []string{"vjob000-vm00", "vjob000-vm01"}) {
		t.Fatalf("drain announced as %+v", ev)
	}
	tb.Undrain("node001")
	tb.Undrain("node001")
	if len(*events) != 2 || (*events)[1].Kind != core.NodeUp {
		t.Fatalf("events after two undrains: %v", *events)
	}
}

// TestDone: the loop may not stop while a finished vjob's VMs are
// still in the configuration, nor — when vjobs arrive — before the
// arrivals stop.
func TestDone(t *testing.T) {
	o := quickOptions()
	o.VJobs = 1
	o.StopWhenDone = true
	tb := New(o)
	c, job := tb.Cluster, tb.Jobs()[0]
	if tb.Loop.Done() {
		t.Fatal("done with an unfinished vjob")
	}
	for _, v := range job.VMs {
		c.SetWorkload(v.Name, nil)
	}
	if !c.VJobDone(job) || tb.Loop.Done() {
		t.Fatal("done while the finished vjob's VMs are still in the configuration")
	}
	for _, v := range job.VMs {
		c.Config().RemoveVM(v.Name)
	}
	if !tb.Loop.Done() {
		t.Fatal("not done with every vjob finished and removed")
	}

	// An arrival window with a rate so low nothing arrives in it.
	o.VJobs, o.ArrivalRate, o.ArrivalStop = 0, 1e-12, 100
	tb = New(o)
	if tb.Loop.Done() {
		t.Fatal("done inside the arrival window")
	}
	tb.Cluster.Schedule(150, func() {})
	tb.Cluster.Run(200)
	if !tb.Loop.Done() {
		t.Fatalf("not done at t=%v, past the arrival window, with nothing submitted", tb.Cluster.Now())
	}

	o.StopWhenDone = false
	if New(o).Loop.Done != nil {
		t.Fatal("a stop condition without StopWhenDone")
	}
}

// churnOptions is a churn-shaped scenario: arrivals, failing actions,
// the structural audit.
func churnOptions() Options {
	o := quickOptions()
	o.ArrivalRate, o.ArrivalStop = 1.0/20, 120
	o.Failures = sim.FailureStorm{Base: 0.05, Storm: 0.3, From: 40, Until: 80}
	o.WatchInvariants = true
	o.StopWhenDone = true
	o.Horizon = 3000
	return o
}

// TestRunRepeats: equal options give equal runs — everything but the
// wall time.
func TestRunRepeats(t *testing.T) {
	run := func() (Summary, any) {
		tb := New(churnOptions())
		s := tb.Run()
		if len(tb.Specs) != s.Arrived || s.Arrived <= 3 {
			t.Fatalf("%d specs for %d arrived vjobs", len(tb.Specs), s.Arrived)
		}
		atoms := s.Ledger.Atoms()
		s.Wall, s.Ledger = 0, nil
		return s, atoms
	}
	a, atomsA := run()
	b, atomsB := run()
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(atomsA, atomsB) {
		t.Fatalf("two runs of equal options differ:\n%+v\n%+v", a, b)
	}
	if a.Completed != a.Arrived || a.Switches == 0 || a.Breaches != 0 || a.FinalViolations != 0 {
		t.Fatalf("the scenario did not run to a clean end: %+v", a)
	}
	if len(a.Spans) != 0 {
		t.Fatalf("%d spans retained without CollectSpans", len(a.Spans))
	}
	if len(a.Remediations) != a.Episodes || len(a.Recoveries) != a.Episodes {
		t.Fatalf("%d episodes, %d recoveries, %d remediations", a.Episodes, len(a.Recoveries), len(a.Remediations))
	}
}

// TestLedgerSeesDrainRules: in a churn-shaped run a drained node that
// still hosts a VM is a breached rule the ledger integrates — the
// churn study's ledger had no rule source and could not.
func TestLedgerSeesDrainRules(t *testing.T) {
	o := churnOptions()
	o.CollectSpans = true
	tb := New(o)
	c := tb.Cluster
	drained := ""
	c.Schedule(30, func() {
		cfg := c.Config()
		for _, v := range cfg.InState(vjob.Running) {
			drained = cfg.HostOf(v.Name)
			tb.Drain(drained)
			return
		}
	})
	s := tb.Run()
	if drained == "" {
		t.Fatal("nothing was running at t=30")
	}
	if s.RuleBreachSeconds <= 0 {
		t.Fatalf("node %s drained under load, rule-breach seconds %v", drained, s.RuleBreachSeconds)
	}
	if n := len(c.Config().RunningOn(drained)); n != 0 {
		t.Fatalf("%s still runs %d VMs at the end", drained, n)
	}
	if len(s.Spans) == 0 {
		t.Fatal("CollectSpans retained nothing")
	}
}

// TestControlPlaneWiresEveryHook: the server's hooks are required (its
// handlers call them without a nil check), so the one production
// wiring sets every exported field, Withdraw included.
func TestControlPlaneWiresEveryHook(t *testing.T) {
	srv := reflect.ValueOf(New(quickOptions()).ControlPlane(&sync.Mutex{})).Elem()
	for i := 0; i < srv.NumField(); i++ {
		if f := srv.Type().Field(i); f.IsExported() && srv.Field(i).IsZero() {
			t.Errorf("ControlPlane leaves api.Server.%s unset", f.Name)
		}
	}
}

// TestControlPlaneServes drives the mounted server the way a client
// would: a vjob submitted over HTTP is placed, runs and completes, and
// the read endpoints see the loop through the closures.
func TestControlPlaneServes(t *testing.T) {
	o := quickOptions()
	o.PaperNames = true
	o.StopWhenDone = true
	o.Horizon = 5000
	tb := New(o)
	if tb.Cluster.Config().Node(tb.NodeName(7)) == nil || tb.NodeName(7) != "node07" || tb.Jobs()[0].Name != "vjob1" {
		t.Fatalf("paper names: %v, %s", tb.Cluster.Config().Nodes(), tb.Jobs()[0].Name)
	}
	var mu sync.Mutex
	srv := tb.ControlPlane(&mu)
	h := srv.Handler()
	do := func(method, path, body string, want int) string {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewBufferString(body)))
		if w.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, w.Code, want, w.Body)
		}
		return w.Body.String()
	}
	do("POST", "/v1/vjobs", `{"name":"op","vms":[{"name":"op-0","cpu":1,"memory":512,"phases":[{"cpu":1,"seconds":50}]}]}`, http.StatusAccepted)
	do("POST", "/v1/events", `[{"kind":"load-change","vms":["op-0"]}]`, http.StatusAccepted)
	if srv.Execution() != nil {
		t.Fatal("an execution before the loop started")
	}
	s := tb.Run()
	if s.Arrived != 4 || s.Completed != 4 {
		t.Fatalf("%d of %d vjobs completed", s.Completed, s.Arrived)
	}
	if got := srv.Stats(); got != s.Stats || srv.Switches() != s.Switches || srv.ViolationSeconds() != s.ViolationSeconds {
		t.Fatalf("the server reads other numbers than the summary: %+v", got)
	}
	if srv.Now() != s.End || srv.Config() != tb.Cluster.Config() {
		t.Fatal("the server reads another cluster")
	}
	if body := do("GET", "/v1/solver", "", http.StatusOK); !strings.Contains(body, "winner") {
		t.Fatalf("no solver telemetry behind the control plane: %s", body)
	}
	do("GET", "/v1/trace", "", http.StatusOK)
	do("GET", "/v1/violations", "", http.StatusOK)
}

// TestQueueDepthCountsUnfinished: the queue-depth gauge counts the
// vjobs of the loop's queue that are not done. Once a workload has run
// to completion /v1/stats and /metrics read 0; a vjob of service VMs,
// which never finish, still counts.
func TestQueueDepthCountsUnfinished(t *testing.T) {
	o := quickOptions()
	o.StopWhenDone = true
	o.Horizon = 5000
	tb := New(o)
	srv := tb.ControlPlane(&sync.Mutex{})
	if srv.QueueDepth() != 3 {
		t.Fatalf("queue depth %d before the run, want 3", srv.QueueDepth())
	}
	if s := tb.Run(); s.Completed != 3 {
		t.Fatalf("%d of %d vjobs completed", s.Completed, s.Arrived)
	}
	h := srv.Handler()
	get := func(path string) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Body.String()
	}
	if stats := get("/v1/stats"); !strings.Contains(stats, `"queueDepth":0`) {
		t.Fatalf("stats after the run: %s", stats)
	}
	if metrics := get("/metrics"); !strings.Contains(metrics, "\ncwcs_queue_depth 0\n") {
		t.Fatalf("metrics after the run lack cwcs_queue_depth 0:\n%s", metrics)
	}
	if err := srv.Submit(api.VJobSpec{Name: "svc", VMs: []api.VMSpec{{Name: "svc-0", CPU: 1, Memory: 512}}}); err != nil {
		t.Fatal(err)
	}
	if srv.QueueDepth() != 1 {
		t.Fatalf("queue depth %d with a service vjob, want 1", srv.QueueDepth())
	}
}
