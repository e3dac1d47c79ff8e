package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/duration"
	"cwcs/internal/monitor"
	"cwcs/internal/obs"
	"cwcs/internal/resources"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// testbed is a miniature daemon: a simulated cluster driven by an
// event-driven loop, with the control plane mounted over a mutex the
// sim driver shares — the same serialization cmd/entropyd uses — and
// one tracer wired through the loop, the actuator and the server.
type testbed struct {
	t    testing.TB
	mu   sync.Mutex
	c    *sim.Cluster
	cfg  *vjob.Configuration
	loop *core.Loop
	act  *drivers.Actuator
	inv  *sim.Invariants
	jobs []*vjob.VJob

	violSec func() float64

	srv *Server
	ts  *httptest.Server
}

func newTestbed(t testing.TB, nodes, cpu, mem int) *testbed {
	t.Helper()
	b := &testbed{t: t, cfg: vjob.NewConfiguration()}
	for i := 0; i < nodes; i++ {
		b.cfg.AddNode(vjob.NewNode(fmt.Sprintf("node%03d", i), cpu, mem))
	}
	b.c = sim.New(b.cfg, duration.Default())
	b.inv = sim.WatchInvariants(b.c)
	tr := obs.NewTracer(1024)
	b.act = &drivers.Actuator{C: b.c, Trace: tr}
	drains := &core.DrainSet{}
	b.loop = &core.Loop{
		Decision:    sched.Consolidation{},
		Optimizer:   core.Optimizer{Timeout: 2 * time.Second, Workers: 1},
		EventDriven: true,
		Debounce:    2,
		Drains:      drains,
		Queue:       func() []*vjob.VJob { return b.jobs },
		Trace:       tr,
	}
	led := monitor.WatchLedger(b.c, drains.Rules)
	b.violSec = led.Total
	b.loop.Solver = core.NewSolverTelemetry(0)
	b.c.OnLoadChange(func(vm string) {
		b.loop.Notify(b.act, core.Event{Kind: core.LoadChange, At: b.c.Now(), VMs: []string{vm}})
	})

	exec := func(fn func()) {
		b.mu.Lock()
		defer b.mu.Unlock()
		fn()
	}
	b.srv = &Server{
		Exec:     exec,
		Now:      b.c.Now,
		Config:   b.c.Config,
		Stats:    func() core.LoopStats { return b.loop.Stats },
		Switches: func() int { return len(b.loop.Records) },
		Execution: func() *drivers.Execution {
			ex, _ := b.loop.Execution().(*drivers.Execution)
			return ex
		},
		Notify:           func(ev core.Event) { b.loop.Notify(b.act, ev) },
		Drains:           drains,
		OnUndrain:        b.onUndrain,
		Submit:           b.submit,
		Withdraw:         b.withdraw,
		ViolationSeconds: b.violSec,
		QueueDepth:       func() int { return len(b.jobs) },
		Trace:            tr,
		Ledger:           led,
		Solver:           b.loop.Solver,
	}
	b.ts = httptest.NewServer(b.srv.Handler())
	t.Cleanup(b.ts.Close)
	return b
}

// onUndrain brings an offline node back before the loop may place work
// on it again.
func (b *testbed) onUndrain(node string) error {
	if b.cfg.Node(node) == nil {
		return b.c.SetNodeOnline(node)
	}
	return nil
}

// submit installs a vjob from the API spec: VMs enter Waiting and the
// loop is notified of the arrival.
func (b *testbed) submit(spec VJobSpec) error {
	for _, j := range b.jobs {
		if j.Name == spec.Name {
			return fmt.Errorf("vjob %s already exists", spec.Name)
		}
	}
	var vms []*vjob.VM
	var names []string
	for _, v := range spec.VMs {
		if b.cfg.VM(v.Name) != nil {
			return fmt.Errorf("VM %s already exists", v.Name)
		}
		vms = append(vms, vjob.NewVM(v.Name, spec.Name, v.CPU, v.Memory))
		names = append(names, v.Name)
	}
	job := vjob.NewVJob(spec.Name, len(b.jobs), vms...)
	job.Submitted = b.c.Now()
	for i, v := range vms {
		b.cfg.AddVM(v)
		var phases []sim.Phase
		for _, p := range spec.VMs[i].Phases {
			phases = append(phases, sim.Phase{CPU: p.CPU, Seconds: p.Seconds})
		}
		if len(phases) > 0 {
			b.c.SetWorkload(v.Name, phases)
		}
	}
	b.jobs = append(b.jobs, job)
	b.loop.Notify(b.act, core.Event{Kind: core.VMArrival, At: b.c.Now(), VMs: names})
	return nil
}

// withdraw removes a vjob whose VMs are still all waiting.
func (b *testbed) withdraw(name string) error {
	for i, j := range b.jobs {
		if j.Name != name {
			continue
		}
		var names []string
		for _, v := range j.VMs {
			if b.cfg.VM(v.Name) != nil && b.cfg.StateOf(v.Name) != vjob.Waiting {
				return fmt.Errorf("vjob %s is already placed; let it finish", name)
			}
			names = append(names, v.Name)
		}
		for _, vn := range names {
			b.cfg.RemoveVM(vn)
		}
		b.jobs = append(b.jobs[:i], b.jobs[i+1:]...)
		b.loop.Notify(b.act, core.Event{Kind: core.VMDeparture, At: b.c.Now(), VMs: names})
		return nil
	}
	return fmt.Errorf("unknown vjob %s", name)
}

// place starts a running vjob of n VMs round-robin over the given
// nodes, with a long single-phase workload so demand persists.
func (b *testbed) place(job string, n, cpu, mem int, nodes []string) *vjob.VJob {
	b.t.Helper()
	var vms []*vjob.VM
	for i := 0; i < n; i++ {
		vms = append(vms, vjob.NewVM(fmt.Sprintf("%s-vm%d", job, i), job, cpu, mem))
	}
	j := vjob.NewVJob(job, len(b.jobs), vms...)
	for i, v := range vms {
		b.cfg.AddVM(v)
		if err := b.cfg.SetRunning(v.Name, nodes[i%len(nodes)]); err != nil {
			b.t.Fatalf("place %s: %v", v.Name, err)
		}
		b.c.SetWorkload(v.Name, []sim.Phase{{CPU: cpu, Seconds: 1e6}})
	}
	b.jobs = append(b.jobs, j)
	return j
}

// advance runs the simulator forward dt virtual seconds.
func (b *testbed) advance(dt float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.c.Run(b.c.Now() + dt)
}

// locked runs fn under the sim mutex (the test-side Exec).
func (b *testbed) locked(fn func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn()
}

func (b *testbed) get(t *testing.T, path string, want int) []byte {
	t.Helper()
	resp, err := http.Get(b.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d (want %d): %s", path, resp.StatusCode, want, body)
	}
	return body
}

func (b *testbed) do(t *testing.T, method, path string, body any, want int) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, b.ts.URL+path, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, want, data)
	}
	return data
}

func TestHealthzAndRouting(t *testing.T) {
	b := newTestbed(t, 4, 2, 4096)
	var health map[string]string
	if err := json.Unmarshal(b.get(t, "/healthz", http.StatusOK), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
	if resp, err := http.Get(b.ts.URL + "/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %v %v", resp.StatusCode, err)
	}
	// Wrong method on a routed path.
	resp, err := http.Post(b.ts.URL+"/v1/config", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/config: %v %v", resp.StatusCode, err)
	}
}

func TestConfigEndpointRoundTrips(t *testing.T) {
	b := newTestbed(t, 4, 2, 4096)
	b.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	body := b.get(t, "/v1/config", http.StatusOK)
	got := vjob.NewConfiguration()
	if err := json.Unmarshal(body, got); err != nil {
		t.Fatalf("config decode: %v", err)
	}
	if got.NumNodes() != 4 || got.NumVMs() != 2 {
		t.Fatalf("config: %d nodes, %d VMs", got.NumNodes(), got.NumVMs())
	}
	if got.HostOf("ja-vm0") != "node000" {
		t.Fatalf("config: ja-vm0 on %q", got.HostOf("ja-vm0"))
	}
}

func TestEventInjection(t *testing.T) {
	b := newTestbed(t, 4, 2, 4096)
	b.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	events := []map[string]any{{"kind": "load-change", "vms": []string{"ja-vm0"}}}
	var acc map[string]int
	if err := json.Unmarshal(b.do(t, "POST", "/v1/events", events, http.StatusAccepted), &acc); err != nil {
		t.Fatalf("events: %v", err)
	}
	if acc["accepted"] != 1 {
		t.Fatalf("accepted %d", acc["accepted"])
	}
	b.locked(func() {
		if b.loop.Stats.Events != 1 {
			t.Fatalf("loop saw %d events", b.loop.Stats.Events)
		}
	})
	// Unknown kinds, injected failures and malformed bodies are all 400.
	b.do(t, "POST", "/v1/events", []map[string]any{{"kind": "bogus"}}, http.StatusBadRequest)
	b.do(t, "POST", "/v1/events", []map[string]any{{"kind": "action-failure"}}, http.StatusBadRequest)
	b.do(t, "POST", "/v1/events", map[string]any{"kind": "load-change"}, http.StatusBadRequest)
}

func TestNodeEndpoints(t *testing.T) {
	b := newTestbed(t, 4, 2, 4096)
	b.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	var nodes []nodeJSON
	if err := json.Unmarshal(b.get(t, "/v1/nodes", http.StatusOK), &nodes); err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if len(nodes) != 4 {
		t.Fatalf("nodes: %d", len(nodes))
	}
	var n0 nodeJSON
	if err := json.Unmarshal(b.get(t, "/v1/nodes/node000", http.StatusOK), &n0); err != nil {
		t.Fatalf("node000: %v", err)
	}
	if n0.UsedCPU != 1 || len(n0.Running) != 1 || n0.Draining {
		t.Fatalf("node000: %+v", n0)
	}
	b.get(t, "/v1/nodes/ghost", http.StatusNotFound)
	b.do(t, "POST", "/v1/nodes/ghost/drain", nil, http.StatusNotFound)
	b.do(t, "POST", "/v1/nodes/ghost/undrain", nil, http.StatusNotFound)
}

// TestNodePinnedByImageReason pins the drain-stuck diagnosis: a
// draining node whose only remaining content is a suspended image
// reports reason "pinned-by-image" with the owning vjobs, while a
// draining node still running guests reports "in-progress" — so an
// operator can tell a stuck drain from a slow one.
func TestNodePinnedByImageReason(t *testing.T) {
	b := newTestbed(t, 3, 2, 4096)
	b.place("ja", 1, 1, 1024, []string{"node000"})
	// jb suspends to node001: the drain order can never evacuate the
	// image — only resuming or withdrawing jb frees the node.
	b.locked(func() {
		vm := vjob.NewVM("jb-vm0", "jb", 1, 1024)
		b.cfg.AddVM(vm)
		if err := b.cfg.SetSleeping("jb-vm0", "node001"); err != nil {
			t.Fatalf("suspend jb-vm0: %v", err)
		}
	})

	var st nodeJSON
	if err := json.Unmarshal(b.do(t, "POST", "/v1/nodes/node001/drain", nil, http.StatusAccepted), &st); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st.Evacuated || st.Reason != ReasonPinnedByImage {
		t.Fatalf("draining image node: %+v", st)
	}
	if len(st.PinnedBy) != 1 || st.PinnedBy[0] != "jb" {
		t.Fatalf("pinnedBy = %v, want [jb]", st.PinnedBy)
	}
	// The diagnosis persists on reads, and survives the loop running:
	// the optimizer cannot move an image.
	b.advance(60)
	st = nodeJSON{}
	if err := json.Unmarshal(b.get(t, "/v1/nodes/node001", http.StatusOK), &st); err != nil {
		t.Fatalf("node001: %v", err)
	}
	if st.Evacuated || st.Reason != ReasonPinnedByImage || len(st.PinnedBy) != 1 {
		t.Fatalf("after loop: %+v", st)
	}

	// A draining node with running guests is merely in progress: no
	// pinning vjobs are reported.
	st = nodeJSON{}
	if err := json.Unmarshal(b.do(t, "POST", "/v1/nodes/node000/drain", nil, http.StatusAccepted), &st); err != nil {
		t.Fatalf("drain node000: %v", err)
	}
	if st.Reason != ReasonInProgress || st.PinnedBy != nil {
		t.Fatalf("draining busy node: %+v", st)
	}
	// An undrained node carries no reason at all.
	st = nodeJSON{}
	if err := json.Unmarshal(b.get(t, "/v1/nodes/node002", http.StatusOK), &st); err != nil {
		t.Fatalf("node002: %v", err)
	}
	if st.Reason != "" || st.PinnedBy != nil {
		t.Fatalf("clean node: %+v", st)
	}
}

// TestMetricsExposition is registry-driven: metricFamilies() is the
// single source of truth, so every family it reports with samples must
// appear in the scrape with its HELP/TYPE headers and every sample
// series, while a family that has no samples yet must not leave orphan
// headers. A new family added to the registry is covered automatically
// — there is no hand-kept name list to forget.
func TestMetricsExposition(t *testing.T) {
	b := newTestbed(t, 4, 2, 4096)
	b.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	b.advance(60) // bootstrap iteration
	text := string(b.get(t, "/metrics", http.StatusOK))
	fams := b.srv.metricFamilies()
	if len(fams) < 20 {
		t.Fatalf("metric registry shrank to %d families", len(fams))
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.name] = true
		if len(f.samples) == 0 {
			if strings.Contains(text, "# TYPE "+f.name+" ") {
				t.Errorf("family %s has no samples but left headers in the exposition", f.name)
			}
			continue
		}
		if !strings.Contains(text, "# HELP "+f.name+" "+f.help) ||
			!strings.Contains(text, "# TYPE "+f.name+" "+f.typ) {
			t.Errorf("metrics: headers of %s missing", f.name)
		}
		for _, smp := range f.samples {
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(f.name+smp.labels) + ` `)
			if !re.MatchString(text) {
				t.Errorf("metrics: series %s%s missing", f.name, smp.labels)
			}
		}
	}
	// The attribution-era families cannot silently leave the registry.
	for _, want := range []string{
		"cwcs_solves_total", "cwcs_violation_seconds_total",
		"cwcs_portfolio_wins_total", "cwcs_warm_start_hits_total",
		"cwcs_warm_start_misses_total", "cwcs_rule_breach_seconds_total",
		"cwcs_state_watch_drops_total", "cwcs_queue_depth",
	} {
		if !names[want] {
			t.Errorf("family %s missing from the registry", want)
		}
	}
	if v := metricValue(t, text, "cwcs_queue_depth"); v != 1 {
		t.Fatalf("queue depth %g", v)
	}
}

// metricValue extracts one sample from the exposition text.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func TestVJobSubmitAndWithdraw(t *testing.T) {
	b := newTestbed(t, 4, 2, 4096)
	spec := VJobSpec{Name: "jx", VMs: []VMSpec{
		{Name: "jx-vm0", CPU: 1, Memory: 1024, Phases: []PhaseSpec{{CPU: 1, Seconds: 300}}},
	}}
	b.do(t, "POST", "/v1/vjobs", spec, http.StatusAccepted)
	// Resubmitting the same name conflicts; malformed bodies are 400.
	b.do(t, "POST", "/v1/vjobs", spec, http.StatusConflict)
	b.do(t, "POST", "/v1/vjobs", VJobSpec{Name: ""}, http.StatusBadRequest)
	b.do(t, "POST", "/v1/vjobs", VJobSpec{Name: "jy", VMs: []VMSpec{{Name: ""}}}, http.StatusBadRequest)
	// Duplicate VM names within one spec and negative phase values are
	// rejected before they can corrupt the simulator.
	b.do(t, "POST", "/v1/vjobs", VJobSpec{Name: "jz", VMs: []VMSpec{
		{Name: "jz-vm0", CPU: 1, Memory: 512}, {Name: "jz-vm0", CPU: 2, Memory: 8192},
	}}, http.StatusBadRequest)
	b.do(t, "POST", "/v1/vjobs", VJobSpec{Name: "jn", VMs: []VMSpec{
		{Name: "jn-vm0", CPU: 1, Memory: 512, Phases: []PhaseSpec{{CPU: -5, Seconds: 100}}},
	}}, http.StatusBadRequest)

	// The loop places the arrival on the next wake-up.
	b.advance(30)
	b.locked(func() {
		if st := b.cfg.StateOf("jx-vm0"); st != vjob.Running {
			t.Fatalf("jx-vm0 is %v after the wake-up", st)
		}
	})
	// A placed vjob cannot be withdrawn; an unknown one is a conflict
	// too.
	b.do(t, "DELETE", "/v1/vjobs/jx", nil, http.StatusConflict)
	b.do(t, "DELETE", "/v1/vjobs/ghost", nil, http.StatusConflict)

	// A still-waiting vjob withdraws cleanly.
	spec2 := VJobSpec{Name: "jw", VMs: []VMSpec{{Name: "jw-vm0", CPU: 1, Memory: 1024}}}
	b.do(t, "POST", "/v1/vjobs", spec2, http.StatusAccepted)
	b.do(t, "DELETE", "/v1/vjobs/jw", nil, http.StatusOK)
	b.locked(func() {
		if b.cfg.VM("jw-vm0") != nil {
			t.Fatal("jw-vm0 still in the configuration")
		}
	})
}

func TestPlanStatusDuringExecution(t *testing.T) {
	b := newTestbed(t, 6, 2, 4096)
	b.place("ja", 4, 1, 1024, []string{"node000", "node001", "node002", "node003"})
	// Idle: no plan.
	var idle planJSON
	if err := json.Unmarshal(b.get(t, "/v1/plan", http.StatusOK), &idle); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if idle.Executing || len(idle.Actions) != 0 {
		t.Fatalf("idle plan: %+v", idle)
	}
	// Drain a hosting node, then catch the evacuation mid-flight.
	b.do(t, "POST", "/v1/nodes/node000/drain", nil, http.StatusAccepted)
	var got planJSON
	for i := 0; i < 200; i++ {
		b.advance(0.5)
		var busy bool
		b.locked(func() { busy = b.loop.Busy() })
		if !busy {
			continue
		}
		if err := json.Unmarshal(b.get(t, "/v1/plan", http.StatusOK), &got); err != nil {
			t.Fatalf("plan: %v", err)
		}
		if got.Executing {
			break
		}
	}
	if !got.Executing || len(got.Actions) == 0 {
		t.Fatalf("never observed an executing plan: %+v", got)
	}
	seen := map[string]bool{}
	for _, a := range got.Actions {
		seen[a.Phase] = true
		if a.Action == "" || a.VM == "" {
			t.Fatalf("action missing fields: %+v", a)
		}
	}
	if !seen["running"] && !seen["pending"] && !seen["done"] {
		t.Fatalf("phases: %+v", got.Actions)
	}
}

// TestDrainEndToEnd is the acceptance scenario: drain a hosting node
// of a 100-node cluster through the API, let the event-driven loop
// evacuate it with zero invariant breaches, take it offline, bring it
// back with undrain, and scrape the metrics the whole time.
func TestDrainEndToEnd(t *testing.T) {
	b := newTestbed(t, 100, 2, 4096)
	var busyNodes []string
	for i := 0; i < 60; i++ {
		busyNodes = append(busyNodes, fmt.Sprintf("node%03d", i))
	}
	for j := 0; j < 30; j++ {
		b.place(fmt.Sprintf("job%02d", j), 4, 1, 1024, busyNodes[j*2:j*2+2])
	}
	b.advance(5) // bootstrap: everything is already satisfied

	target := "node000"
	var drained nodeJSON
	if err := json.Unmarshal(b.do(t, "POST", "/v1/nodes/"+target+"/drain", nil, http.StatusAccepted), &drained); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !drained.Draining || drained.Evacuated {
		t.Fatalf("drain response: %+v", drained)
	}
	// Draining twice is idempotent.
	b.do(t, "POST", "/v1/nodes/"+target+"/drain", nil, http.StatusAccepted)

	evacuated := false
	for i := 0; i < 120 && !evacuated; i++ {
		b.advance(10)
		var st nodeJSON
		if err := json.Unmarshal(b.get(t, "/v1/nodes/"+target, http.StatusOK), &st); err != nil {
			t.Fatalf("node status: %v", err)
		}
		evacuated = st.Evacuated
	}
	if !evacuated {
		t.Fatal("node was not evacuated")
	}
	b.locked(func() {
		if err := b.inv.Err(); err != nil {
			t.Fatalf("invariant breaches during evacuation: %v", err)
		}
		if !b.cfg.Viable() {
			t.Fatalf("non-viable configuration after evacuation: %v", b.cfg.Violations())
		}
		if n := len(b.cfg.RunningOn(target)); n != 0 {
			t.Fatalf("%d VMs still on %s", n, target)
		}
		if b.loop.Stats.SolverCalls == 0 {
			t.Fatal("evacuation without solver calls")
		}
	})

	// Maintenance: take the empty node offline; the API still reports
	// it as operator state.
	b.locked(func() {
		if err := b.c.SetNodeOffline(target); err != nil {
			t.Fatalf("offline: %v", err)
		}
	})
	var off nodeJSON
	if err := json.Unmarshal(b.get(t, "/v1/nodes/"+target, http.StatusOK), &off); err != nil {
		t.Fatalf("offline status: %v", err)
	}
	if !off.Offline || !off.Draining {
		t.Fatalf("offline status: %+v", off)
	}

	// Undrain restores the node (the OnUndrain hook brings it online).
	var back nodeJSON
	if err := json.Unmarshal(b.do(t, "POST", "/v1/nodes/"+target+"/undrain", nil, http.StatusOK), &back); err != nil {
		t.Fatalf("undrain: %v", err)
	}
	if back.Draining || back.Offline || back.CPU != 2 {
		t.Fatalf("undrain status: %+v", back)
	}
	b.locked(func() {
		if b.cfg.Node(target) == nil {
			t.Fatal("node missing after undrain")
		}
	})

	// The restored node is usable again: submit work that the loop
	// places.
	spec := VJobSpec{Name: "after", VMs: []VMSpec{
		{Name: "after-vm0", CPU: 1, Memory: 1024, Phases: []PhaseSpec{{CPU: 1, Seconds: 1e6}}},
		{Name: "after-vm1", CPU: 1, Memory: 1024, Phases: []PhaseSpec{{CPU: 1, Seconds: 1e6}}},
	}}
	b.do(t, "POST", "/v1/vjobs", spec, http.StatusAccepted)
	placed := false
	for i := 0; i < 60 && !placed; i++ {
		b.advance(10)
		b.locked(func() {
			placed = b.cfg.StateOf("after-vm0") == vjob.Running && b.cfg.StateOf("after-vm1") == vjob.Running
		})
	}
	if !placed {
		t.Fatal("submitted vjob never placed after undrain")
	}
	b.locked(func() {
		if err := b.inv.Err(); err != nil {
			t.Fatalf("invariant breaches: %v", err)
		}
	})

	// The metrics surface the whole story.
	text := string(b.get(t, "/metrics", http.StatusOK))
	if v := metricValue(t, text, "cwcs_solves_total"); v < 1 {
		t.Fatalf("solves %g", v)
	}
	if v := metricValue(t, text, "cwcs_switches_total"); v < 1 {
		t.Fatalf("switches %g", v)
	}
	if v := metricValue(t, text, "cwcs_draining_nodes"); v != 0 {
		t.Fatalf("draining nodes %g", v)
	}
	metricValue(t, text, "cwcs_violation_seconds_total")

	var stats statsJSON
	if err := json.Unmarshal(b.get(t, "/v1/stats", http.StatusOK), &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Loop.SolverCalls < 1 || stats.QueueDepth < 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestNodeResourceDimensions: the node endpoints report every
// dimension with capacity or usage, and /metrics exports the labeled
// per-node per-kind gauges.
func TestNodeResourceDimensions(t *testing.T) {
	b := newTestbed(t, 2, 2, 4096)
	// Upgrade node000 with extra dimensions and host a net-hungry VM.
	n0 := b.cfg.Node("node000")
	n0.Capacity.Set(resources.NetBW, 1000)
	n0.Capacity.Set(resources.DiskIO, 600)
	d := resources.New(1, 1024)
	d.Set(resources.NetBW, 250)
	v := vjob.NewVMRes("net-vm", "jn", d)
	b.cfg.AddVM(v)
	if err := b.cfg.SetRunning("net-vm", "node000"); err != nil {
		t.Fatal(err)
	}

	var st nodeJSON
	if err := json.Unmarshal(b.get(t, "/v1/nodes/node000", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Resources["net"].Used != 250 || st.Resources["net"].Capacity != 1000 {
		t.Fatalf("net dimension: %+v", st.Resources)
	}
	if st.Resources["cpu"].Used != 1 || st.Resources["cpu"].Capacity != 2 {
		t.Fatalf("cpu dimension: %+v", st.Resources)
	}
	if st.Resources["disk"].Capacity != 600 {
		t.Fatalf("disk dimension: %+v", st.Resources)
	}
	if st.UsedCPU != 1 || st.UsedMemory != 1024 {
		t.Fatalf("flat fields drifted: %+v", st)
	}
	// node001 stays 2-D: no net/disk entries.
	var st1 nodeJSON
	if err := json.Unmarshal(b.get(t, "/v1/nodes/node001", http.StatusOK), &st1); err != nil {
		t.Fatal(err)
	}
	if _, ok := st1.Resources["net"]; ok {
		t.Fatalf("2-D node grew a net dimension: %+v", st1.Resources)
	}
	if st1.Resources["memory"].Capacity != 4096 {
		t.Fatalf("memory dimension: %+v", st1.Resources)
	}

	body := string(b.get(t, "/metrics", http.StatusOK))
	for _, want := range []string{
		`cwcs_node_resource_used{node="node000",kind="net"} 250`,
		`cwcs_node_resource_capacity{node="node000",kind="net"} 1000`,
		`cwcs_node_resource_used{node="node001",kind="memory"} 0`,
		`cwcs_node_resource_capacity{node="node001",kind="cpu"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, `{node="node001",kind="net"}`) {
		t.Fatalf("2-D node exports a net gauge:\n%s", body)
	}
}

// TestOversizedBodiesRefused: a body over maxBodyBytes is answered 413
// by both write endpoints without reaching the loop or the submitter,
// and a body under it decodes as before.
func TestOversizedBodiesRefused(t *testing.T) {
	b := newTestbed(t, 2, 2, 4096)
	notified, submitted := 0, 0
	b.srv.Notify = func(core.Event) { notified++ }
	b.srv.Submit = func(VJobSpec) error { submitted++; return nil }
	pad := strings.Repeat("x", 2<<20)

	events := []map[string]any{{"kind": "load-change", "vms": []string{pad}}}
	b.do(t, "POST", "/v1/events", events, http.StatusRequestEntityTooLarge)
	spec := map[string]any{"name": pad, "vms": []map[string]any{{"name": "a", "cpu": 1, "memory": 256}}}
	b.do(t, "POST", "/v1/vjobs", spec, http.StatusRequestEntityTooLarge)
	if notified != 0 || submitted != 0 {
		t.Fatalf("oversized bodies reached the sinks: %d events, %d vjobs", notified, submitted)
	}

	// Just under the bound is a request like any other.
	events[0]["vms"] = []string{pad[:maxBodyBytes-1024]}
	b.do(t, "POST", "/v1/events", events, http.StatusAccepted)
	spec["name"] = "ja"
	b.do(t, "POST", "/v1/vjobs", spec, http.StatusAccepted)
	if notified != 1 || submitted != 1 {
		t.Fatalf("in-bound bodies: %d events, %d vjobs reached the sinks", notified, submitted)
	}
}
