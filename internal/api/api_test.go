package api_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cwcs/internal/api"
	"cwcs/internal/core"
	"cwcs/internal/resources"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
	"cwcs/internal/vjob"
)

// daemon is the control plane as entropyd -listen serves it: a
// testbed's event-driven loop behind testbed.ControlPlane, mounted on
// an httptest server over the mutex a sim driver holds. The loop is
// never started; it reacts to what the tests feed it.
type daemon struct {
	*testbed.Testbed
	t      testing.TB
	mu     sync.Mutex
	srv    *api.Server
	url    string
	placed []*vjob.VJob // vjobs place started, ahead of the submitted ones
}

func newDaemon(t testing.TB, nodes, cpu, mem int) *daemon {
	t.Helper()
	d := &daemon{t: t, Testbed: testbed.New(testbed.Options{
		Nodes: nodes, NodeCPU: cpu, NodeMemory: mem,
		Decision:    sched.Consolidation{},
		Optimizer:   core.Optimizer{Timeout: 2 * time.Second, Workers: 1},
		EventDriven: true,
		Debounce:    2,
	})}
	submitted := d.Jobs
	d.Jobs = func() []*vjob.VJob { return append(slices.Clip(d.placed), submitted()...) }
	d.srv = d.ControlPlane(&d.mu)
	ts := httptest.NewServer(d.srv.Handler())
	t.Cleanup(ts.Close)
	d.url = ts.URL
	return d
}

// place starts a running vjob of n VMs round-robin over the given
// nodes, with a long single-phase workload so demand persists. The
// loop is not told.
func (d *daemon) place(job string, n, cpu, mem int, nodes []string) {
	d.t.Helper()
	cfg := d.Cluster.Config()
	var vms []*vjob.VM
	for i := 0; i < n; i++ {
		vms = append(vms, vjob.NewVM(fmt.Sprintf("%s-vm%d", job, i), job, cpu, mem))
	}
	for i, v := range vms {
		cfg.AddVM(v)
		if err := cfg.SetRunning(v.Name, nodes[i%len(nodes)]); err != nil {
			d.t.Fatalf("place %s: %v", v.Name, err)
		}
		d.Cluster.SetWorkload(v.Name, []sim.Phase{{CPU: cpu, Seconds: 1e6}})
	}
	d.placed = append(d.placed, vjob.NewVJob(job, len(d.placed), vms...))
}

// advance runs the simulator forward dt virtual seconds.
func (d *daemon) advance(dt float64) {
	d.locked(func() { d.Cluster.Run(d.Cluster.Now() + dt) })
}

// locked runs fn under the sim mutex (the test-side Exec).
func (d *daemon) locked(fn func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fn()
}

func (d *daemon) get(t *testing.T, path string, want int) []byte {
	t.Helper()
	return d.do(t, "GET", path, nil, want)
}

func (d *daemon) do(t *testing.T, method, path string, body any, want int) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, d.url+path, rd)
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
	d := newDaemon(t, 4, 2, 4096)
	var health map[string]string
	if err := json.Unmarshal(d.get(t, "/healthz", http.StatusOK), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
	if resp, err := http.Get(d.url + "/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %v %v", resp.StatusCode, err)
	}
	// Wrong method on a routed path.
	resp, err := http.Post(d.url+"/v1/config", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/config: %v %v", resp.StatusCode, err)
	}
}

func TestConfigEndpointRoundTrips(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	d.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	body := d.get(t, "/v1/config", http.StatusOK)
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
	d := newDaemon(t, 4, 2, 4096)
	d.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	events := []map[string]any{{"kind": "load-change", "vms": []string{"ja-vm0"}}}
	var acc map[string]int
	if err := json.Unmarshal(d.do(t, "POST", "/v1/events", events, http.StatusAccepted), &acc); err != nil {
		t.Fatalf("events: %v", err)
	}
	if acc["accepted"] != 1 {
		t.Fatalf("accepted %d", acc["accepted"])
	}
	d.locked(func() {
		if d.Loop.Stats.Events != 1 {
			t.Fatalf("loop saw %d events", d.Loop.Stats.Events)
		}
	})
	// Unknown kinds, injected failures and malformed bodies are all 400.
	d.do(t, "POST", "/v1/events", []map[string]any{{"kind": "bogus"}}, http.StatusBadRequest)
	d.do(t, "POST", "/v1/events", []map[string]any{{"kind": "action-failure"}}, http.StatusBadRequest)
	d.do(t, "POST", "/v1/events", map[string]any{"kind": "load-change"}, http.StatusBadRequest)
}

func TestNodeEndpoints(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	d.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	var nodes []api.NodeJSON
	if err := json.Unmarshal(d.get(t, "/v1/nodes", http.StatusOK), &nodes); err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if len(nodes) != 4 {
		t.Fatalf("nodes: %d", len(nodes))
	}
	var n0 api.NodeJSON
	if err := json.Unmarshal(d.get(t, "/v1/nodes/node000", http.StatusOK), &n0); err != nil {
		t.Fatalf("node000: %v", err)
	}
	if n0.UsedCPU != 1 || len(n0.Running) != 1 || n0.Draining {
		t.Fatalf("node000: %+v", n0)
	}
	d.get(t, "/v1/nodes/ghost", http.StatusNotFound)
	d.do(t, "POST", "/v1/nodes/ghost/drain", nil, http.StatusNotFound)
	d.do(t, "POST", "/v1/nodes/ghost/undrain", nil, http.StatusNotFound)
}

// TestNodePinnedByImageReason pins the drain-stuck diagnosis: a
// draining node whose only remaining content is a suspended image
// reports reason "pinned-by-image" with the owning vjobs, while a
// draining node still running guests reports "in-progress" — so an
// operator can tell a stuck drain from a slow one.
func TestNodePinnedByImageReason(t *testing.T) {
	d := newDaemon(t, 3, 2, 4096)
	d.place("ja", 1, 1, 1024, []string{"node000"})
	// jb suspends to node001: the drain order can never evacuate the
	// image — only resuming or withdrawing jb frees the node.
	d.locked(func() {
		vm := vjob.NewVM("jb-vm0", "jb", 1, 1024)
		d.Cluster.Config().AddVM(vm)
		if err := d.Cluster.Config().SetSleeping("jb-vm0", "node001"); err != nil {
			t.Fatalf("suspend jb-vm0: %v", err)
		}
	})

	var st api.NodeJSON
	if err := json.Unmarshal(d.do(t, "POST", "/v1/nodes/node001/drain", nil, http.StatusAccepted), &st); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st.Evacuated || st.Reason != api.ReasonPinnedByImage {
		t.Fatalf("draining image node: %+v", st)
	}
	if len(st.PinnedBy) != 1 || st.PinnedBy[0] != "jb" {
		t.Fatalf("pinnedBy = %v, want [jb]", st.PinnedBy)
	}
	// The diagnosis persists on reads, and survives the loop running:
	// the optimizer cannot move an image.
	d.advance(60)
	st = api.NodeJSON{}
	if err := json.Unmarshal(d.get(t, "/v1/nodes/node001", http.StatusOK), &st); err != nil {
		t.Fatalf("node001: %v", err)
	}
	if st.Evacuated || st.Reason != api.ReasonPinnedByImage || len(st.PinnedBy) != 1 {
		t.Fatalf("after loop: %+v", st)
	}

	// A draining node with running guests is merely in progress: no
	// pinning vjobs are reported.
	st = api.NodeJSON{}
	if err := json.Unmarshal(d.do(t, "POST", "/v1/nodes/node000/drain", nil, http.StatusAccepted), &st); err != nil {
		t.Fatalf("drain node000: %v", err)
	}
	if st.Reason != api.ReasonInProgress || st.PinnedBy != nil {
		t.Fatalf("draining busy node: %+v", st)
	}
	// An undrained node carries no reason at all.
	st = api.NodeJSON{}
	if err := json.Unmarshal(d.get(t, "/v1/nodes/node002", http.StatusOK), &st); err != nil {
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
	d := newDaemon(t, 4, 2, 4096)
	d.do(t, "POST", "/v1/vjobs", api.VJobSpec{Name: "ja", VMs: []api.VMSpec{
		{Name: "ja-vm0", CPU: 1, Memory: 1024, Phases: []api.PhaseSpec{{CPU: 1, Seconds: 1e6}}},
		{Name: "ja-vm1", CPU: 1, Memory: 1024, Phases: []api.PhaseSpec{{CPU: 1, Seconds: 1e6}}},
	}}, http.StatusAccepted)
	d.advance(60) // the arrival's iteration places it
	text := string(d.get(t, "/metrics", http.StatusOK))
	fams := d.srv.MetricFamilies()
	if len(fams) < 20 {
		t.Fatalf("metric registry shrank to %d families", len(fams))
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
		if len(f.Series) == 0 {
			if strings.Contains(text, "# TYPE "+f.Name+" ") {
				t.Errorf("family %s has no samples but left headers in the exposition", f.Name)
			}
			continue
		}
		if !strings.Contains(text, "# HELP "+f.Name+" "+f.Help) ||
			!strings.Contains(text, "# TYPE "+f.Name+" "+f.Type) {
			t.Errorf("metrics: headers of %s missing", f.Name)
		}
		for _, labels := range f.Series {
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(f.Name+labels) + ` `)
			if !re.MatchString(text) {
				t.Errorf("metrics: series %s%s missing", f.Name, labels)
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
	d := newDaemon(t, 4, 2, 4096)
	spec := api.VJobSpec{Name: "jx", VMs: []api.VMSpec{
		{Name: "jx-vm0", CPU: 1, Memory: 1024, Phases: []api.PhaseSpec{{CPU: 1, Seconds: 300}}},
	}}
	d.do(t, "POST", "/v1/vjobs", spec, http.StatusAccepted)
	// Resubmitting the same name conflicts; malformed bodies are 400.
	d.do(t, "POST", "/v1/vjobs", spec, http.StatusConflict)
	d.do(t, "POST", "/v1/vjobs", api.VJobSpec{Name: ""}, http.StatusBadRequest)
	d.do(t, "POST", "/v1/vjobs", api.VJobSpec{Name: "jy", VMs: []api.VMSpec{{Name: ""}}}, http.StatusBadRequest)
	// Duplicate VM names within one spec and negative phase values are
	// rejected before they can corrupt the simulator.
	d.do(t, "POST", "/v1/vjobs", api.VJobSpec{Name: "jz", VMs: []api.VMSpec{
		{Name: "jz-vm0", CPU: 1, Memory: 512}, {Name: "jz-vm0", CPU: 2, Memory: 8192},
	}}, http.StatusBadRequest)
	d.do(t, "POST", "/v1/vjobs", api.VJobSpec{Name: "jn", VMs: []api.VMSpec{
		{Name: "jn-vm0", CPU: 1, Memory: 512, Phases: []api.PhaseSpec{{CPU: -5, Seconds: 100}}},
	}}, http.StatusBadRequest)

	// The loop places the arrival on the next wake-up.
	d.advance(30)
	d.locked(func() {
		if st := d.Cluster.Config().StateOf("jx-vm0"); st != vjob.Running {
			t.Fatalf("jx-vm0 is %v after the wake-up", st)
		}
	})
	// A placed vjob cannot be withdrawn; an unknown one is a conflict
	// too.
	d.do(t, "DELETE", "/v1/vjobs/jx", nil, http.StatusConflict)
	d.do(t, "DELETE", "/v1/vjobs/ghost", nil, http.StatusConflict)

	// A still-waiting vjob withdraws cleanly.
	spec2 := api.VJobSpec{Name: "jw", VMs: []api.VMSpec{{Name: "jw-vm0", CPU: 1, Memory: 1024}}}
	d.do(t, "POST", "/v1/vjobs", spec2, http.StatusAccepted)
	d.do(t, "DELETE", "/v1/vjobs/jw", nil, http.StatusOK)
	d.locked(func() {
		if d.Cluster.Config().VM("jw-vm0") != nil {
			t.Fatal("jw-vm0 still in the configuration")
		}
	})
}

func TestPlanStatusDuringExecution(t *testing.T) {
	d := newDaemon(t, 6, 2, 4096)
	d.place("ja", 4, 1, 1024, []string{"node000", "node001", "node002", "node003"})
	// Idle: no plan.
	var idle api.PlanJSON
	if err := json.Unmarshal(d.get(t, "/v1/plan", http.StatusOK), &idle); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if idle.Executing || len(idle.Actions) != 0 {
		t.Fatalf("idle plan: %+v", idle)
	}
	// Drain a hosting node, then catch the evacuation mid-flight.
	d.do(t, "POST", "/v1/nodes/node000/drain", nil, http.StatusAccepted)
	var got api.PlanJSON
	for i := 0; i < 200; i++ {
		d.advance(0.5)
		var busy bool
		d.locked(func() { busy = d.Loop.Busy() })
		if !busy {
			continue
		}
		if err := json.Unmarshal(d.get(t, "/v1/plan", http.StatusOK), &got); err != nil {
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
	d := newDaemon(t, 100, 2, 4096)
	inv := sim.WatchInvariants(d.Cluster)
	var busyNodes []string
	for i := 0; i < 60; i++ {
		busyNodes = append(busyNodes, fmt.Sprintf("node%03d", i))
	}
	for j := 0; j < 30; j++ {
		d.place(fmt.Sprintf("job%02d", j), 4, 1, 1024, busyNodes[j*2:j*2+2])
	}
	d.advance(5) // bootstrap: everything is already satisfied

	target := "node000"
	var drained api.NodeJSON
	if err := json.Unmarshal(d.do(t, "POST", "/v1/nodes/"+target+"/drain", nil, http.StatusAccepted), &drained); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !drained.Draining || drained.Evacuated {
		t.Fatalf("drain response: %+v", drained)
	}
	// Draining twice is idempotent.
	d.do(t, "POST", "/v1/nodes/"+target+"/drain", nil, http.StatusAccepted)

	evacuated := false
	for i := 0; i < 120 && !evacuated; i++ {
		d.advance(10)
		var st api.NodeJSON
		if err := json.Unmarshal(d.get(t, "/v1/nodes/"+target, http.StatusOK), &st); err != nil {
			t.Fatalf("node status: %v", err)
		}
		evacuated = st.Evacuated
	}
	if !evacuated {
		t.Fatal("node was not evacuated")
	}
	d.locked(func() {
		if err := inv.Err(); err != nil {
			t.Fatalf("invariant breaches during evacuation: %v", err)
		}
		if !d.Cluster.Config().Viable() {
			t.Fatalf("non-viable configuration after evacuation: %v", d.Cluster.Config().Violations())
		}
		if n := len(d.Cluster.Config().RunningOn(target)); n != 0 {
			t.Fatalf("%d VMs still on %s", n, target)
		}
		if d.Loop.Stats.SolverCalls == 0 {
			t.Fatal("evacuation without solver calls")
		}
	})

	// Maintenance: take the empty node offline; the API still reports
	// it as operator state.
	d.locked(func() {
		if err := d.Cluster.SetNodeOffline(target); err != nil {
			t.Fatalf("offline: %v", err)
		}
	})
	var off api.NodeJSON
	if err := json.Unmarshal(d.get(t, "/v1/nodes/"+target, http.StatusOK), &off); err != nil {
		t.Fatalf("offline status: %v", err)
	}
	if !off.Offline || !off.Draining {
		t.Fatalf("offline status: %+v", off)
	}

	// Undrain restores the node (the OnUndrain hook brings it online).
	var back api.NodeJSON
	if err := json.Unmarshal(d.do(t, "POST", "/v1/nodes/"+target+"/undrain", nil, http.StatusOK), &back); err != nil {
		t.Fatalf("undrain: %v", err)
	}
	if back.Draining || back.Offline || back.CPU != 2 {
		t.Fatalf("undrain status: %+v", back)
	}
	d.locked(func() {
		if d.Cluster.Config().Node(target) == nil {
			t.Fatal("node missing after undrain")
		}
	})

	// The restored node is usable again: submit work that the loop
	// places.
	spec := api.VJobSpec{Name: "after", VMs: []api.VMSpec{
		{Name: "after-vm0", CPU: 1, Memory: 1024, Phases: []api.PhaseSpec{{CPU: 1, Seconds: 1e6}}},
		{Name: "after-vm1", CPU: 1, Memory: 1024, Phases: []api.PhaseSpec{{CPU: 1, Seconds: 1e6}}},
	}}
	d.do(t, "POST", "/v1/vjobs", spec, http.StatusAccepted)
	placed := false
	for i := 0; i < 60 && !placed; i++ {
		d.advance(10)
		d.locked(func() {
			placed = d.Cluster.Config().StateOf("after-vm0") == vjob.Running && d.Cluster.Config().StateOf("after-vm1") == vjob.Running
		})
	}
	if !placed {
		t.Fatal("submitted vjob never placed after undrain")
	}
	d.locked(func() {
		if err := inv.Err(); err != nil {
			t.Fatalf("invariant breaches: %v", err)
		}
	})

	// The metrics surface the whole story.
	text := string(d.get(t, "/metrics", http.StatusOK))
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

	var stats api.StatsJSON
	if err := json.Unmarshal(d.get(t, "/v1/stats", http.StatusOK), &stats); err != nil {
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
	d := newDaemon(t, 2, 2, 4096)
	// Upgrade node000 with extra dimensions and host a net-hungry VM.
	n0 := d.Cluster.Config().Node("node000")
	n0.Capacity.Set(resources.NetBW, 1000)
	n0.Capacity.Set(resources.DiskIO, 600)
	demand := resources.New(1, 1024)
	demand.Set(resources.NetBW, 250)
	v := vjob.NewVMRes("net-vm", "jn", demand)
	d.Cluster.Config().AddVM(v)
	if err := d.Cluster.Config().SetRunning("net-vm", "node000"); err != nil {
		t.Fatal(err)
	}

	var st api.NodeJSON
	if err := json.Unmarshal(d.get(t, "/v1/nodes/node000", http.StatusOK), &st); err != nil {
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
	var st1 api.NodeJSON
	if err := json.Unmarshal(d.get(t, "/v1/nodes/node001", http.StatusOK), &st1); err != nil {
		t.Fatal(err)
	}
	if _, ok := st1.Resources["net"]; ok {
		t.Fatalf("2-D node grew a net dimension: %+v", st1.Resources)
	}
	if st1.Resources["memory"].Capacity != 4096 {
		t.Fatalf("memory dimension: %+v", st1.Resources)
	}

	body := string(d.get(t, "/metrics", http.StatusOK))
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

// TestOversizedBodiesRefused: a body over api.MaxBodyBytes is answered 413
// by both write endpoints without reaching the loop or the submitter,
// and a body under it decodes as before.
func TestOversizedBodiesRefused(t *testing.T) {
	d := newDaemon(t, 2, 2, 4096)
	notified, submitted := 0, 0
	d.srv.Notify = func(core.Event) { notified++ }
	d.srv.Submit = func(api.VJobSpec) error { submitted++; return nil }
	pad := strings.Repeat("x", 2<<20)

	events := []map[string]any{{"kind": "load-change", "vms": []string{pad}}}
	d.do(t, "POST", "/v1/events", events, http.StatusRequestEntityTooLarge)
	spec := map[string]any{"name": pad, "vms": []map[string]any{{"name": "a", "cpu": 1, "memory": 256}}}
	d.do(t, "POST", "/v1/vjobs", spec, http.StatusRequestEntityTooLarge)
	if notified != 0 || submitted != 0 {
		t.Fatalf("oversized bodies reached the sinks: %d events, %d vjobs", notified, submitted)
	}

	// Just under the bound is a request like any other.
	events[0]["vms"] = []string{pad[:api.MaxBodyBytes-1024]}
	d.do(t, "POST", "/v1/events", events, http.StatusAccepted)
	spec["name"] = "ja"
	d.do(t, "POST", "/v1/vjobs", spec, http.StatusAccepted)
	if notified != 1 || submitted != 1 {
		t.Fatalf("in-bound bodies: %d events, %d vjobs reached the sinks", notified, submitted)
	}
}

// FuzzSubmitVJob: whatever body POST /v1/vjobs receives, it answers
// 202, 400, 409 or 413 — never a panic and never a 5xx.
func FuzzSubmitVJob(f *testing.F) {
	for _, body := range []string{
		`{"name":"op","vms":[{"name":"op-0","cpu":1,"memory":512,"phases":[{"cpu":1,"seconds":50}]}]}`,
		`{"name":"op","vms":[{"name":"op-0","cpu":1,"memory":512},{"name":"op-0","cpu":1,"memory":512}]}`,
		`{"name":"tab\tnbsp\u00a0","vms":[{"name":"x","cpu":-1,"memory":512}]}`,
		`{"name":"op","vms":[{"name":"op-0","phases":[{"cpu":1,"seconds":-1}]}]}`,
		`{"name":"","vms":[]}`,
		`{"name":"op","vms":[{"name":"op-0","cpu":1e99}]}`,
		`[1,2,3]`,
		`null`,
		``,
		`{`,
	} {
		f.Add([]byte(body))
	}
	h := newDaemon(f, 2, 2, 4096).srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/vjobs", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body)
		}
	})
}
