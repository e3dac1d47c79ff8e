package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"cwcs/internal/api"
	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/monitor"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// apiWorkload is api_mixed: the control plane in process. The live
// cluster of churn_ev is wired into api.Server the way
// cmd/entropyd.controlPlane wires it (a copy: that function lives in a
// main package), and one goroutine plays both the daemon's simulator
// driver and its clients, through Handler().ServeHTTP and no socket.
// Each step advances the cluster under the Exec mutex, then reads seven
// endpoints; now and then it submits a vjob or posts events. An
// operation is one HTTP request.
type apiWorkload struct {
	opts        liveOptions
	steps       int     // one scenario of this many steps is a round
	stepSeconds float64 // virtual seconds per step, as entropyd's driver
	submitEvery int
	eventEvery  int
	warmSteps   int
	floor       time.Duration
	seed        int64

	ran *apiRun // the scenario of the last round
}

var apiReads = []string{"/v1/nodes", "/v1/config", "/v1/plan", "/v1/stats", "/metrics", "/v1/violations", "/v1/solver"}

func newAPIWorkload(smoke bool) *apiWorkload {
	w := &apiWorkload{
		opts: liveOptions{
			nodes: 250, initialVJobs: 20, vmsPerVJob: 9,
			failureRate: 0.02, debounce: 5, budget: 150,
		},
		steps: 150, stepSeconds: 30, submitEvery: 15, eventEvery: 10, warmSteps: 60,
		floor: warmFloor(smoke),
	}
	if smoke {
		w.opts.nodes, w.opts.initialVJobs, w.opts.budget = 40, 4, 40
		w.steps, w.submitEvery, w.warmSteps = 30, 6, 5
	}
	return w
}

// request is one HTTP exchange and when it happened on the program
// clock: the time spent so far in the simulator and in handlers, which
// is what a client of the daemon would have waited through.
type request struct {
	method, path string
	status       int
	body         []byte
	took         time.Duration
	end          time.Duration // program clock when the response was complete
	step         int
}

// apiRun is one pass of the driving loop.
type apiRun struct {
	l        *live
	handler  http.Handler
	mu       sync.Mutex
	tr       *tracer
	clock    time.Duration
	requests []request
	holds    []time.Duration // how long each simulator step held the Exec mutex
	submits  map[string]submission
	waits    []time.Duration // submit-to-placed times, filled after the run
	rng      *rand.Rand
}

type submission struct {
	vms []string
	at  time.Duration // program clock when the POST began
}

// newAPIRun builds the cluster and mounts the control plane on it.
func (w *apiWorkload) newAPIRun(seed int64, tr *tracer) *apiRun {
	r := &apiRun{l: newLive(w.opts, seed, tr), tr: tr, submits: map[string]submission{}, rng: rand.New(rand.NewSource(seed + 3))}
	l := r.l
	drains := &core.DrainSet{}
	solver := core.NewSolverTelemetry(0)
	l.loop.Drains = drains
	l.loop.Solver = solver
	watcher := &monitor.ThresholdWatcher{Emit: l.act.notify}
	watcher.Attach(l.c)
	srv := &api.Server{
		Trace:  l.tracer,
		Ledger: l.ledger,
		Solver: solver,
		Exec: func(fn func()) {
			defer tr.begin("api.exec")()
			r.mu.Lock()
			defer r.mu.Unlock()
			fn()
		},
		Now:      l.c.Now,
		Config:   l.c.Config,
		Stats:    func() core.LoopStats { return l.loop.Stats },
		Switches: func() int { return len(l.loop.Records) },
		Execution: func() *drivers.Execution {
			ex, _ := l.loop.Execution().(*drivers.Execution)
			return ex
		},
		Notify: l.act.notify,
		Drains: drains,
		OnUndrain: func(node string) error {
			if l.cfg.Node(node) == nil {
				return l.c.SetNodeOnline(node)
			}
			return nil
		},
		Submit: func(spec api.VJobSpec) error {
			for _, j := range l.jobs {
				if j.Name == spec.Name {
					return fmt.Errorf("vjob %s already exists", spec.Name)
				}
			}
			var vms []*vjob.VM
			var names []string
			for _, v := range spec.VMs {
				if l.cfg.VM(v.Name) != nil {
					return fmt.Errorf("VM %s already exists", v.Name)
				}
				vms = append(vms, vjob.NewVM(v.Name, spec.Name, v.CPU, v.Memory))
				names = append(names, v.Name)
			}
			job := vjob.NewVJob(spec.Name, len(l.jobs), vms...)
			job.Submitted = l.c.Now()
			for i, v := range vms {
				l.cfg.AddVM(v)
				var phases []sim.Phase
				for _, p := range spec.VMs[i].Phases {
					phases = append(phases, sim.Phase{CPU: p.CPU, Seconds: p.Seconds})
				}
				if len(phases) > 0 {
					l.c.SetWorkload(v.Name, phases)
				}
			}
			l.track(job)
			l.act.notify(core.Event{Kind: core.VMArrival, At: l.c.Now(), VMs: names})
			return nil
		},
		ViolationSeconds: l.ledger.Total,
		QueueDepth:       func() int { return len(l.jobs) },
	}
	r.handler = srv.Handler()
	return r
}

// do sends one request through the handler stack.
func (r *apiRun) do(step int, method, path string, body []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	end := r.tr.begin("api." + method + " " + path)
	t0 := time.Now()
	r.handler.ServeHTTP(rec, req)
	took := time.Since(t0)
	end()
	r.clock += took
	r.requests = append(r.requests, request{method: method, path: path, status: rec.Code, body: rec.Body.Bytes(), took: took, end: r.clock, step: step})
}

// drive plays steps of the daemon: advance the simulator under the
// mutex, read every endpoint, and on schedule submit a vjob (drawn
// from the scenario's own generator) or post load-change events for a
// few of the VMs in the queue.
func (r *apiRun) drive(w *apiWorkload, steps int) {
	l := r.l
	r.mu.Lock()
	l.loop.Start(l.act)
	r.mu.Unlock()
	for step := 1; step <= steps; step++ {
		r.tr.nextOp()
		end := r.tr.begin("sim.advance")
		t0 := time.Now()
		r.mu.Lock()
		l.c.Run(l.c.Now() + w.stepSeconds)
		r.mu.Unlock()
		hold := time.Since(t0)
		end()
		r.holds = append(r.holds, hold)
		r.clock += hold

		for _, path := range apiReads {
			r.tr.nextOp()
			r.do(step, http.MethodGet, path, nil)
		}
		if step%w.submitEvery == 0 {
			s := l.spec()
			spec := api.VJobSpec{Name: s.Job.Name}
			var names []string
			for _, v := range s.Job.VMs {
				vm := api.VMSpec{Name: v.Name, CPU: v.CPUDemand(), Memory: v.MemoryDemand()}
				for _, p := range s.Phases[v.Name] {
					vm.Phases = append(vm.Phases, api.PhaseSpec{CPU: p.CPU, Seconds: p.Seconds})
				}
				spec.VMs = append(spec.VMs, vm)
				names = append(names, v.Name)
			}
			body, _ := json.Marshal(spec)
			r.submits[spec.Name] = submission{vms: names, at: r.clock}
			r.tr.nextOp()
			r.do(step, http.MethodPost, "/v1/vjobs", body)
		}
		if step%w.eventEvery == 0 {
			var vms []string
			for i := 0; i < 3; i++ {
				j := l.jobs[r.rng.Intn(len(l.jobs))]
				vms = append(vms, j.VMs[r.rng.Intn(len(j.VMs))].Name)
			}
			body, _ := json.Marshal([]map[string]any{{"kind": core.LoadChange.String(), "vms": vms}})
			r.tr.nextOp()
			r.do(step, http.MethodPost, "/v1/events", body)
		}
	}
}

// wantStatus is the status each endpoint answers when all is well.
func wantStatus(method string) int {
	if method == http.MethodPost {
		return http.StatusAccepted
	}
	return http.StatusOK
}

// verify checks one response: the expected status and a body that
// decodes as what the endpoint serves.
func (q *request) verify() error {
	if q.status != wantStatus(q.method) {
		return fmt.Errorf("%s %s (step %d): status %d: %.200s", q.method, q.path, q.step, q.status, q.body)
	}
	if q.path == "/metrics" {
		if !strings.Contains(string(q.body), "cwcs_") {
			return fmt.Errorf("GET /metrics (step %d): no cwcs_ family in the body", q.step)
		}
		return nil
	}
	var into any
	switch q.path {
	case "/v1/config":
		into = vjob.NewConfiguration()
	case "/v1/nodes":
		into = &[]map[string]any{}
	default:
		into = &map[string]any{}
	}
	if err := json.Unmarshal(q.body, into); err != nil {
		return fmt.Errorf("%s %s (step %d): body does not decode: %w", q.method, q.path, q.step, err)
	}
	return nil
}

// placed returns, for every submitted vjob that got placed, the
// program-clock time from its POST to the end of the first GET
// /v1/config that shows all its VMs running, in the order the vjobs
// were seen placed.
func (r *apiRun) placed() []time.Duration {
	var waits []time.Duration
	seen := map[string]bool{}
	for _, q := range r.requests {
		if q.path != "/v1/config" || len(seen) == len(r.submits) {
			continue
		}
		var cfg *vjob.Configuration
		for _, name := range sortedKeys(r.submits) {
			s := r.submits[name]
			if seen[name] || q.end < s.at {
				continue
			}
			if cfg == nil {
				cfg = vjob.NewConfiguration()
				if json.Unmarshal(q.body, cfg) != nil {
					break
				}
			}
			all := true
			for _, vm := range s.vms {
				all = all && cfg.StateOf(vm) == vjob.Running
			}
			if all {
				seen[name] = true
				waits = append(waits, q.end-s.at)
			}
		}
	}
	return waits
}

func (w *apiWorkload) setup(seed int64) error {
	w.seed = seed
	return warmUp(w.floor, 1, func(int) error {
		r := w.newAPIRun(refSeed, nil)
		r.drive(w, w.warmSteps)
		for i := range r.requests {
			if err := r.requests[i].verify(); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *apiWorkload) round(index int, tr *tracer) (round, error) {
	out := round{counts: map[string]float64{}}
	w.ran = nil // let the last round's cluster and response bodies go
	run := w.newAPIRun(instanceSeed(w.seed, index), tr)
	_, out.alloc = measure(func() { run.drive(w, w.steps) })
	out.wall = run.clock
	w.ran = run
	for k := range run.requests {
		q := &run.requests[k]
		out.ops = append(out.ops, q.took)
		if err := q.verify(); err != nil {
			out.fail(err)
		}
	}
	l := run.l
	if n := l.inv.StructuralCount(); n > 0 {
		return out, fmt.Errorf("api_mixed: %d structural breaches: %v", n, l.inv.Err())
	}
	if l.act.slowest > safetyCap/2 {
		return out, fmt.Errorf("api_mixed: a loop callback took %v, within 2x of the %v safety cap", l.act.slowest, safetyCap)
	}
	run.waits = run.placed()
	c := out.counts
	l.addCounts(c)
	c["remediation_p95_vs"] = monitor.Quantile(l.remediations(), 0.95)
	c["requests"] = float64(len(run.requests))
	c["submitted"] = float64(len(run.submits))
	c["placed"] = float64(len(run.waits))
	for _, q := range run.requests {
		if q.path == "/v1/nodes" {
			c["get_nodes_bytes"] = float64(len(q.body)) // the last one
		}
	}
	return out, nil
}

func (w *apiWorkload) layers(tr *tracer, traced round, m map[string]float64) error {
	run := w.ran
	by := map[string][]time.Duration{}
	var all []time.Duration
	for _, q := range run.requests {
		by[q.method+" "+q.path] = append(by[q.method+" "+q.path], q.took)
		all = append(all, q.took)
	}
	loopLayers([]*live{run.l}, traced, m)
	m["sched.decide_ms"] = median(millis(tr.durations("sched.decide")))
	m["api.get_nodes_ms_p50"] = median(millis(by["GET /v1/nodes"]))
	m["api.get_config_ms_p50"] = median(millis(by["GET /v1/config"]))
	m["api.get_plan_ms_p50"] = median(millis(by["GET /v1/plan"]))
	m["api.get_metrics_ms_p50"] = median(millis(by["GET /metrics"]))
	m["api.post_vjob_ms_p50"] = median(millis(by["POST /v1/vjobs"]))
	m["api.post_event_ms_p50"] = median(millis(by["POST /v1/events"]))
	m["api.request_p90_ms"] = quantile(millis(all), 0.9)
	m["api.get_nodes_bytes"] = traced.counts["get_nodes_bytes"]
	m["api.exec_hold_p50_ms"] = median(millis(run.holds))
	m["api.exec_hold_max_ms"] = quantile(millis(run.holds), 1)
	m["api.submit_to_placed_p50_ms"] = median(millis(run.waits))
	return nil
}
