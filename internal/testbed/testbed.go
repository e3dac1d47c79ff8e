// Package testbed wires the one scenario every loop study and the
// daemon run (§5.2, scaled and perturbed by the studies): a simulated
// cluster, a seeded vjob workload, the control loop under its
// terminator, the actuator, the drain set, one event feed into the
// loop, the failure storm, the tracer and the watchers. What only one
// caller does — the Gantt sampler, rack bursts and flaps, trace replay,
// the anti-entropy sweep, the emptiness probe, the chunked sim driver —
// stays with that caller and plugs in through Cluster.Schedule, Feed
// and Jobs.
//
// Options is the scenario itself: the loop studies of
// internal/experiments take one as their options, each fixing the
// fields its study is about, and a seed sweep is a loop over
// Options.Seed.
//
// Order is seeded behaviour: the simulator breaks time ties by the
// order Schedule was called in and every rng stream is consumed in call
// order. New draws the resident vjobs, then draws and schedules the
// first arrival, so whatever the caller schedules comes after it and
// before the loop's first iteration; the pinned transcripts
// (internal/experiments/testdata/studies_pinned.txt,
// cmd/entropyd/testdata) hold that order fixed.
package testbed

import (
	"fmt"
	"math/rand"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/duration"
	"cwcs/internal/monitor"
	"cwcs/internal/obs"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// Options is what the callers set differently; everything they agree
// on is fixed inside the package.
type Options struct {
	// Nodes, NodeCPU, NodeMemory describe the working nodes.
	Nodes, NodeCPU, NodeMemory int
	// PaperNames numbers the cluster as the paper's testbed does —
	// node07, vjob3 (vjobs from 1) — not as the studies do (node007,
	// vjob012).
	PaperNames bool
	// VJobs vjobs of VMsPerVJob VMs are submitted at time 0: NASGrid
	// benchmarks in turn, classes A and B (W finishes before scheduling
	// effects matter), drawn from the Seed stream.
	VJobs, VMsPerVJob int
	// WorkScale multiplies every phase duration; 0 and 1 leave them.
	WorkScale float64
	// MemoryFloor raises each generated VM's memory demand to at least
	// this (the §5.2 experiment uses 512–2048 MiB VMs).
	MemoryFloor int
	// ArrivalRate is the Poisson vjob arrival rate per virtual second,
	// drawn from the Seed+1 stream until ArrivalStop; 0 means none.
	ArrivalRate, ArrivalStop float64
	// Seed drives the workload; arrivals draw from Seed+1, action
	// failures from Seed+2.
	Seed int64
	// Decision is the module the terminator wraps. It, Optimizer,
	// Interval, EventDriven and Debounce reach core.Loop as they are.
	Decision    core.DecisionModule
	Optimizer   core.Optimizer
	Interval    float64
	EventDriven bool
	Debounce    float64
	// StopWhenDone halts the loop once every vjob finished and its VMs
	// left the configuration (and arrivals, if any, have stopped).
	// Without it the loop reacts until the horizon: node events outlive
	// the vjobs.
	StopWhenDone bool
	// Failures makes actions fail on completion, one variate per action;
	// the zero value installs nothing.
	Failures sim.FailureStorm
	// WatchInvariants audits the configuration after every simulation
	// event (Summary.Breaches).
	WatchInvariants bool
	// CollectSpans retains every closed span in Summary.Spans.
	CollectSpans bool
	// Horizon is the virtual time Run stops the simulation at.
	Horizon float64
}

// Testbed is one wired scenario. Like the loop it is not synchronized:
// a host with several goroutines serializes through the mutex it gives
// ControlPlane.
type Testbed struct {
	Cluster  *sim.Cluster
	Loop     *core.Loop
	Actuator *drivers.Actuator
	// Specs are the generated vjobs, resident and arrived, in order.
	Specs []workload.Spec
	// Feed is the one way a monitoring event reaches the loop: load
	// changes, arrivals, Drain and Undrain, the control plane and
	// whatever the caller observes. A caller that replaces it (the
	// event-loss cell's drop filter) sees them all.
	Feed func(core.Event)
	// Jobs returns every vjob submitted so far; the loop's queue, the
	// terminator, the stop condition and Summary read through it. A
	// caller whose vjobs come from elsewhere (trace replay) replaces it.
	Jobs func() []*vjob.VJob

	opts      Options
	jobs      []*vjob.VJob
	submitted int // vjobs ever submitted: the next priority, never reused
	genRng    *rand.Rand
	arrRng    *rand.Rand
	drains    *core.DrainSet
	tracer    *obs.Tracer
	spans     []obs.SpanRecord // reconfigurations; all under CollectSpans
	inv       *sim.Invariants
	ledger    *monitor.Ledger
	recovery  *monitor.RecoveryLog
}

// New builds the cluster, submits the resident vjobs, wires the loop
// and attaches the watchers; nothing runs until Run (or the caller's
// own Loop.Start).
func New(o Options) *Testbed {
	t := &Testbed{
		opts:   o,
		genRng: rand.New(rand.NewSource(o.Seed)),
		arrRng: rand.New(rand.NewSource(o.Seed + 1)),
		drains: &core.DrainSet{},
		tracer: obs.NewTracer(0),
	}
	cfg := vjob.NewConfiguration()
	for i := 0; i < o.Nodes; i++ {
		cfg.AddNode(vjob.NewNode(t.NodeName(i), o.NodeCPU, o.NodeMemory))
	}
	c := sim.New(cfg, duration.Default())
	t.Cluster = c
	t.Jobs = func() []*vjob.VJob { return t.jobs }
	t.Feed = func(ev core.Event) { t.Loop.Notify(t.Actuator, ev) }
	if o.WatchInvariants {
		t.inv = sim.WatchInvariants(c)
	}
	for i := 0; i < o.VJobs; i++ {
		t.generate()
	}
	// The tracer draws no randomness, so it is always on: the closed
	// reconfiguration spans yield the event-to-remediation figures.
	t.tracer.OnClose(func(r obs.SpanRecord) {
		if o.CollectSpans || r.Kind == obs.KindReconfig.String() {
			t.spans = append(t.spans, r)
		}
	})
	jobs := func() []*vjob.VJob { return t.Jobs() }
	t.Loop = &core.Loop{
		Decision:    sched.Terminator{Inner: o.Decision, Finished: c.VJobDone, Jobs: jobs},
		Trace:       t.tracer,
		Optimizer:   o.Optimizer,
		Interval:    o.Interval,
		EventDriven: o.EventDriven,
		Debounce:    o.Debounce,
		Drains:      t.drains,
		Queue:       jobs,
	}
	if o.StopWhenDone {
		t.Loop.Done = t.done
	}
	t.Actuator = &drivers.Actuator{C: c, Trace: t.tracer}
	// A periodic loop ignores what it is fed: spare it the per-phase
	// load-change events.
	if o.EventDriven {
		c.OnLoadChange(func(vm string) {
			t.Feed(core.Event{Kind: core.LoadChange, At: c.Now(), VMs: []string{vm}})
		})
	}
	if o.Failures.Base > 0 || o.Failures.Storm > 0 {
		c.InstallFailureStorm(rand.New(rand.NewSource(o.Seed+2)), o.Failures)
	}
	if o.ArrivalRate > 0 {
		t.scheduleArrival()
	}
	// Breached rules are integrated too: the administrator's and the
	// live drain orders.
	t.ledger = monitor.WatchLedger(c, func() []core.PlacementRule {
		return append(append([]core.PlacementRule(nil), t.Loop.Rules...), t.drains.Rules()...)
	})
	t.recovery = monitor.WatchRecovery(c)
	return t
}

// NodeName names the i-th working node: node007, or node07 under
// PaperNames.
func (t *Testbed) NodeName(i int) string {
	if t.opts.PaperNames {
		return fmt.Sprintf("node%02d", i)
	}
	return fmt.Sprintf("node%03d", i)
}

// generate draws the next vjob of the seeded workload and submits it.
func (t *Testbed) generate() workload.Spec {
	o, i := t.opts, t.submitted
	t.submitted++
	name := fmt.Sprintf("vjob%03d", i)
	if o.PaperNames {
		name = fmt.Sprintf("vjob%d", i+1)
	}
	spec := workload.NewSpec(name, workload.Benchmarks[i%len(workload.Benchmarks)],
		workload.Classes[1+i%2], o.VMsPerVJob, i, t.genRng)
	if o.WorkScale != 1 && o.WorkScale > 0 {
		for _, ph := range spec.Phases {
			for k := range ph {
				ph[k].Seconds *= o.WorkScale
			}
		}
	}
	for _, v := range spec.Job.VMs {
		if v.MemoryDemand() < o.MemoryFloor {
			v.SetMemoryDemand(o.MemoryFloor)
		}
	}
	spec.Install(t.Cluster.Config(), t.Cluster)
	t.jobs = append(t.jobs, spec.Job)
	t.Specs = append(t.Specs, spec)
	return spec
}

// scheduleArrival draws the next Poisson arrival and, inside the
// window, schedules it; the one after is drawn when it arrives.
func (t *Testbed) scheduleArrival() {
	c := t.Cluster
	at := c.Now() + t.arrRng.ExpFloat64()/t.opts.ArrivalRate
	if at > t.opts.ArrivalStop {
		return
	}
	c.Schedule(at, func() {
		t.Feed(core.Event{Kind: core.VMArrival, At: c.Now(), VMs: vmNames(t.generate().Job)})
		t.scheduleArrival()
	})
}

func vmNames(j *vjob.VJob) []string {
	names := make([]string, len(j.VMs))
	for i, v := range j.VMs {
		names[i] = v.Name
	}
	return names
}

// done is the loop's stop condition: arrivals have stopped, every vjob
// finished AND its VMs were stopped and removed.
func (t *Testbed) done() bool {
	c, cfg := t.Cluster, t.Cluster.Config()
	if t.opts.ArrivalRate > 0 && c.Now() <= t.opts.ArrivalStop {
		return false
	}
	for _, j := range t.Jobs() {
		if !c.VJobDone(j) {
			return false
		}
		for _, v := range j.VMs {
			if cfg.VM(v.Name) != nil {
				return false
			}
		}
	}
	return true
}

// Drain orders the node evacuated, as POST /v1/nodes/{id}/drain does:
// a drain rule forbids it to the optimizer and the loop is fed a
// NodeDown event naming the VMs running there. A failed node is drained
// too — a loaded node cannot simply vanish from the simulator, nor from
// a real inventory. A node already draining emits nothing.
func (t *Testbed) Drain(node string) {
	if !t.drains.Drain(node) {
		return
	}
	ev := core.Event{Kind: core.NodeDown, At: t.Cluster.Now(), Nodes: []string{node}}
	for _, v := range t.Cluster.Config().RunningOn(node) {
		ev.VMs = append(ev.VMs, v.Name)
	}
	t.Feed(ev)
}

// Undrain lifts the order and feeds the loop a NodeUp event; a node
// that was not draining emits nothing.
func (t *Testbed) Undrain(node string) {
	if t.drains.Undrain(node) {
		t.Feed(core.Event{Kind: core.NodeUp, At: t.Cluster.Now(), Nodes: []string{node}})
	}
}

// Summary is what a run measured.
type Summary struct {
	// Stats is the loop telemetry: solver invocations, slice solves,
	// repairs, coalesced events.
	Stats core.LoopStats
	// Records lists every non-empty context switch, Switches counts
	// them.
	Records  []core.SwitchRecord
	Switches int
	// ActionCounts tallies completed actions by kind; LocalOps and
	// RemoteOps count local and remote transfers.
	ActionCounts        map[string]int
	LocalOps, RemoteOps int
	// ViolationSeconds integrates the number of capacity and transfer
	// violations over virtual time: the cumulative exposure.
	// FinalViolations is the count at the end (0 = the loop reached a
	// violation-free configuration).
	ViolationSeconds float64
	FinalViolations  int
	// Breaches is the structural invariant-breach count (audited under
	// Options.WatchInvariants; always expected 0).
	Breaches int
	// Arrived and Completed count vjobs over the run.
	Arrived, Completed int
	// End is the virtual time the simulation went quiescent or hit the
	// horizon; Wall the real time it took (mostly solver budget).
	End  float64
	Wall time.Duration
	// Episodes counts violation episodes (monitor.WatchRecovery);
	// Unrecovered is 1 when one was still open at the end (censored: its
	// partial length is counted too). Recoveries are their lengths in
	// virtual seconds, RecoveryP50/P95/Max the nearest-rank quantiles.
	Episodes, Unrecovered                 int
	Recoveries                            []float64
	RecoveryP50, RecoveryP95, RecoveryMax float64
	// Remediations are the event-to-remediation times, aligned with
	// Recoveries (obs.RemediationTimes): the causal reconfiguration span
	// clamped to the episode, so remediation <= recovery. MatchedEpisodes
	// counts episodes a span covered; the rest fall back to the recovery
	// time.
	Remediations                                   []float64
	MatchedEpisodes                                int
	RemediationP50, RemediationP95, RemediationMax float64
	// Spans is the retained span stream under Options.CollectSpans.
	Spans []obs.SpanRecord
	// Ledger is the per-entity attribution behind ViolationSeconds
	// (== Ledger.Total() by construction). TopVJob and TopNode name the
	// worst-suffering vjob and node with their violation-seconds (empty
	// when the run stayed clean); RuleBreachSeconds integrates breached
	// placement rules — a drained node that still hosted VMs.
	Ledger            *monitor.Ledger
	TopVJob           string
	TopVJobSeconds    float64
	TopNode           string
	TopNodeSeconds    float64
	RuleBreachSeconds float64
}

// Run starts the loop, advances the simulation until it goes quiescent
// or reaches Options.Horizon, and reports.
func (t *Testbed) Run() Summary {
	c, led, rec := t.Cluster, t.ledger, t.recovery
	start := time.Now()
	t.Loop.Start(t.Actuator)
	c.Run(t.opts.Horizon)
	s := Summary{
		Wall:              time.Since(start),
		Stats:             t.Loop.Stats,
		Records:           t.Loop.Records,
		Switches:          len(t.Loop.Records),
		ActionCounts:      c.ActionCounts(),
		FinalViolations:   len(c.Config().Violations()),
		Arrived:           len(t.Jobs()),
		End:               c.Now(),
		Ledger:            led,
		ViolationSeconds:  led.Total(),
		RuleBreachSeconds: led.RuleBreachSeconds(),
	}
	s.LocalOps, s.RemoteOps = c.TransferCounts()
	if t.opts.CollectSpans {
		s.Spans = t.spans
	}
	if t.inv != nil {
		s.Breaches = t.inv.StructuralCount()
	}
	for _, j := range t.Jobs() {
		if c.VJobDone(j) {
			s.Completed++
		}
	}
	if top := led.TopVJobs(1); len(top) > 0 {
		s.TopVJob, s.TopVJobSeconds = top[0].VJob, top[0].Seconds
	}
	if top := led.TopNodes(1); len(top) > 0 {
		s.TopNode, s.TopNodeSeconds = top[0].Node, top[0].Seconds
	}
	if rec.Open {
		s.Unrecovered = 1
		rec.CloseAt(c.Now())
	}
	s.Episodes, s.Recoveries = rec.Episodes(), rec.Durations
	s.RecoveryP50, s.RecoveryP95, s.RecoveryMax = rec.Quantile(0.50), rec.Quantile(0.95), rec.Max()
	s.Remediations, s.MatchedEpisodes = obs.RemediationTimes(t.spans, rec.Starts, rec.Durations)
	s.RemediationP50 = monitor.Quantile(s.Remediations, 0.50)
	s.RemediationP95 = monitor.Quantile(s.Remediations, 0.95)
	s.RemediationMax = monitor.Quantile(s.Remediations, 1)
	return s
}
