package main

import (
	"fmt"
	"math/rand"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/duration"
	"cwcs/internal/monitor"
	"cwcs/internal/obs"
	"cwcs/internal/plan"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// liveOptions sizes one simulated cluster under the event-driven loop,
// the BENCH_eventloop.json scenario scaled down.
type liveOptions struct {
	nodes        int
	initialVJobs int
	vmsPerVJob   int
	// arrivals vjobs arrive at times drawn uniformly before arrivalStop:
	// a Poisson process given its count. BENCH_eventloop.json draws the
	// count too; fixing it keeps two seeds' scenarios the same size.
	arrivals    int
	arrivalStop float64
	failureRate float64
	debounce    float64
	horizon     float64
	budget      int64 // search nodes per slice solve
}

// live is one such cluster, wired as experiments.RunChurn wires it
// (that function cannot take placement rules, and every solve here
// needs its node budget): simulator, event-driven loop, drivers, and
// the three watchers of a measured study.
type live struct {
	opts     liveOptions
	cfg      *vjob.Configuration
	c        *sim.Cluster
	loop     *core.Loop
	act      *loopActuator
	jobs     []*vjob.VJob
	genRng   *rand.Rand
	arrived  int
	reconfig []obs.SpanRecord
	tracer   *obs.Tracer
	ledger   *monitor.Ledger
	recovery *monitor.RecoveryLog
	inv      *sim.Invariants
}

func newLive(o liveOptions, seed int64, tr *tracer) *live {
	l := &live{opts: o, cfg: vjob.NewConfiguration(), genRng: rand.New(rand.NewSource(seed))}
	for i := 0; i < o.nodes; i++ {
		l.cfg.AddNode(vjob.NewNode(fmt.Sprintf("node%03d", i), 2, 4096))
	}
	l.c = sim.New(l.cfg, duration.Default())

	l.tracer = obs.NewTracer(0)
	l.tracer.OnClose(func(r obs.SpanRecord) {
		if r.Kind == obs.KindReconfig.String() {
			l.reconfig = append(l.reconfig, r)
		}
	})
	queue := func() []*vjob.VJob { return l.jobs }
	l.loop = &core.Loop{
		Decision:    &decider{inner: reaper{inner: sched.Consolidation{}, c: l.c, jobs: queue}, tr: tr},
		Trace:       l.tracer,
		Optimizer:   core.Optimizer{Workers: 1, Timeout: safetyCap},
		EventDriven: true,
		Debounce:    o.debounce,
		Queue:       queue,
		Done: func() bool {
			if l.c.Now() <= o.arrivalStop {
				return false
			}
			for _, j := range l.jobs {
				if !l.c.VJobDone(j) {
					return false
				}
				for _, v := range j.VMs {
					if l.cfg.VM(v.Name) != nil {
						return false
					}
				}
			}
			return true
		},
	}
	l.act = &loopActuator{inner: &drivers.Actuator{C: l.c, Trace: l.tracer}, loop: l.loop, tr: tr}
	for i := 0; i < o.initialVJobs; i++ {
		l.install(l.spec())
	}
	if o.failureRate > 0 {
		l.c.InstallFailureStorm(rand.New(rand.NewSource(seed+2)), sim.FailureStorm{Base: o.failureRate})
	}
	l.inv = sim.WatchInvariants(l.c)
	l.c.OnLoadChange(func(vm string) {
		l.act.notify(core.Event{Kind: core.LoadChange, At: l.c.Now(), VMs: []string{vm}})
	})
	arrRng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < o.arrivals; i++ {
		l.c.Schedule(arrRng.Float64()*o.arrivalStop, l.arrive)
	}
	l.ledger = monitor.WatchLedger(l.c, func() []core.PlacementRule { return l.loop.Rules })
	l.recovery = monitor.WatchRecovery(l.c)
	return l
}

// spec draws the next vjob of the scenario.
func (l *live) spec() workload.Spec {
	i := len(l.jobs)
	return workload.NewSpec(fmt.Sprintf("vjob%03d", i), workload.Benchmarks[i%len(workload.Benchmarks)],
		workload.Classes[1+i%2], l.opts.vmsPerVJob, i, l.genRng)
}

// install adds a vjob to the cluster and gives each of its VMs its
// node budget.
func (l *live) install(s workload.Spec) {
	s.Install(l.cfg, l.c)
	l.track(s.Job)
}

// track queues a vjob already in the configuration.
func (l *live) track(j *vjob.VJob) {
	l.jobs = append(l.jobs, j)
	l.arrived++
	for _, v := range j.VMs {
		l.loop.Rules = append(l.loop.Rules, nodeBudget{VM: v.Name, Nodes: l.opts.budget})
	}
}

// arrive submits the scenario's next vjob and tells the loop.
func (l *live) arrive() {
	s := l.spec()
	l.install(s)
	names := make([]string, len(s.Job.VMs))
	for i, v := range s.Job.VMs {
		names[i] = v.Name
	}
	l.act.notify(core.Event{Kind: core.VMArrival, At: l.c.Now(), VMs: names})
}

// verify checks what a finished scenario must look like.
func (l *live) verify() error {
	if n := len(l.cfg.Violations()); n > 0 {
		return fmt.Errorf("%d violations left at t=%.0f", n, l.c.Now())
	}
	if n := l.inv.StructuralCount(); n > 0 {
		return fmt.Errorf("%d structural breaches: %v", n, l.inv.Err())
	}
	if s := l.ledger.RuleBreachSeconds(); s != 0 {
		return fmt.Errorf("%.1f rule-breach seconds, and the only rules are node budgets", s)
	}
	done := 0
	for _, j := range l.jobs {
		if l.c.VJobDone(j) {
			done++
		}
	}
	if done != l.arrived {
		return fmt.Errorf("%d of %d vjobs completed by t=%.0f", done, l.arrived, l.c.Now())
	}
	if l.act.slowest > safetyCap/2 {
		return fmt.Errorf("a loop callback took %v, within 2x of the %v safety cap", l.act.slowest, safetyCap)
	}
	return nil
}

// addCounts adds the scenario's exact results to a round's.
func (l *live) addCounts(c map[string]float64) {
	s := l.loop.Stats
	c["violation_vs"] += l.ledger.Total()
	c["switches"] += float64(len(l.loop.Records))
	c["wakes"] += float64(s.Iterations)
	c["solver_calls"] += float64(s.SolverCalls)
	c["sub_solves"] += float64(s.SubSolves)
	c["repairs"] += float64(s.Repairs)
	c["failed_repairs"] += float64(s.FailedRepairs)
	c["partition_reuses"] += float64(s.PartitionReuses)
	c["events"] += float64(s.Events)
	c["coalesced"] += float64(s.Coalesced)
	c["arrived"] += float64(l.arrived)
	for _, rep := range l.act.inner.Reports {
		c["actions"] += float64(rep.Actions)
		c["actions_failed"] += float64(len(rep.Errs))
	}
}

// remediations returns the event-to-remediation time of every closed
// violation episode, in virtual seconds.
func (l *live) remediations() []float64 {
	l.recovery.CloseAt(l.c.Now())
	times, _ := obs.RemediationTimes(l.reconfig, l.recovery.Starts, l.recovery.Durations)
	return times
}

// reaper stops a vjob once its application has finished, as
// cmd/entropyd's decision wrapper does.
type reaper struct {
	inner core.DecisionModule
	c     *sim.Cluster
	jobs  func() []*vjob.VJob
}

func (r reaper) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	var running []*vjob.VJob
	for _, j := range queue {
		if !r.c.VJobDone(j) {
			running = append(running, j)
		}
	}
	target := r.inner.Decide(cfg, running)
	for _, j := range r.jobs() {
		if !r.c.VJobDone(j) {
			continue
		}
		present, allRunning := false, true
		for _, v := range j.VMs {
			if cfg.VM(v.Name) == nil {
				continue
			}
			present = true
			if cfg.StateOf(v.Name) != vjob.Running {
				allRunning = false
			}
		}
		if present && allRunning {
			target[j.Name] = vjob.Terminated
		} else if present {
			target[j.Name] = vjob.Running
		}
	}
	return target
}

// decider puts a span around the decision module.
type decider struct {
	inner core.DecisionModule
	tr    *tracer
}

func (d *decider) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	defer d.tr.begin("sched.decide")()
	return d.inner.Decide(cfg, queue)
}

// loopActuator stands between the loop and the drivers. Every entry
// into loop code passes through it: the wake-ups the loop schedules,
// the callbacks of an execution, and the events fed to Notify. It
// times those entries from outside (their sum is the loop's busy time;
// the rest of a run is the simulator) and records spans on a traced
// round. Observe and Execute are calls the loop makes back into the
// drivers, so their spans are children of the loop's.
type loopActuator struct {
	inner *drivers.Actuator
	loop  *core.Loop
	tr    *tracer

	depth    int
	busy     time.Duration
	slowest  time.Duration
	executed bool
	wakes    []time.Duration // wake-ups that handed a plan to the drivers
	notifies []time.Duration
	repairs  []time.Duration // pool boundaries that attempted a repair
	observes []time.Duration
}

// enter runs one entry into loop code.
func (a *loopActuator) enter(name string, fn func()) time.Duration {
	end := a.tr.begin(name)
	a.depth++
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	a.depth--
	end()
	if a.depth == 0 {
		a.busy += d
		a.slowest = max(a.slowest, d)
	}
	return d
}

func (a *loopActuator) notify(ev core.Event) {
	a.notifies = append(a.notifies, a.enter("loop.notify", func() { a.loop.Notify(a, ev) }))
}

func (a *loopActuator) Now() float64 { return a.inner.Now() }

func (a *loopActuator) Schedule(at float64, fn func()) {
	a.inner.Schedule(at, func() {
		a.executed = false
		d := a.enter("loop.wake", fn)
		if a.executed {
			a.wakes = append(a.wakes, d)
		}
	})
}

func (a *loopActuator) Observe() *vjob.Configuration {
	end := a.tr.begin("drivers.observe")
	t0 := time.Now()
	cfg := a.inner.Observe()
	a.observes = append(a.observes, time.Since(t0))
	end()
	return cfg
}

func (a *loopActuator) Execute(p *plan.Plan, done func(float64, int)) {
	defer a.tr.begin("drivers.execute")()
	a.executed = true
	a.inner.Execute(p, func(d float64, failures int) {
		a.enter("loop.done", func() { done(d, failures) })
	})
}

func (a *loopActuator) ExecuteManaged(p *plan.Plan, onFailure func(plan.Action, error), onPoolDone func(), done func(float64, int)) core.Execution {
	defer a.tr.begin("drivers.execute")()
	a.executed = true
	return a.inner.ExecuteManaged(p,
		func(act plan.Action, err error) {
			a.enter("loop.failure", func() { onFailure(act, err) })
		},
		func() {
			before := a.loop.Stats.Repairs + a.loop.Stats.FailedRepairs
			d := a.enter("loop.pool_boundary", onPoolDone)
			if a.loop.Stats.Repairs+a.loop.Stats.FailedRepairs > before {
				a.repairs = append(a.repairs, d)
			}
		},
		func(d float64, failures int) {
			a.enter("loop.done", func() { done(d, failures) })
		})
}

// churnWorkload is churn_ev: whole scenarios of the event-driven loop
// on a simulated cluster, Poisson arrivals and failing actions
// included. An operation is one scenario, simulated until every vjob
// has completed: the unit a study pays for. (A scenario has some thirty
// wake-ups of the loop, from one millisecond to a hundred; the median
// of the few hundred a run sees moved by a fifth from seed to seed, so
// they are per-layer metrics, loop.wake_*.)
type churnWorkload struct {
	opts      liveOptions
	scenarios int // simulated in one round
	warm      int // reference scenarios simulated in set-up
	floor     time.Duration
	seed      int64

	ran []*live // the scenarios of the last round
}

func newChurnWorkload(smoke bool) *churnWorkload {
	w := &churnWorkload{
		opts: liveOptions{
			nodes: 100, initialVJobs: 8, vmsPerVJob: 9,
			arrivals: 6, arrivalStop: 900,
			failureRate: 0.02, debounce: 5, horizon: 6000, budget: 150,
		},
		scenarios: 4, warm: 5, floor: warmFloor(smoke),
	}
	if smoke {
		w.opts.nodes, w.opts.initialVJobs, w.opts.arrivals, w.opts.arrivalStop, w.opts.budget = 40, 4, 3, 300, 40
		w.scenarios, w.warm = 2, 1
	}
	return w
}

func (w *churnWorkload) setup(seed int64) error {
	w.seed = seed
	return warmUp(w.floor, w.warm, func(i int) error {
		l := newLive(w.opts, instanceSeed(refSeed, i), nil)
		l.loop.Start(l.act)
		l.c.Run(w.opts.horizon)
		return l.verify()
	})
}

func (w *churnWorkload) round(index int, tr *tracer) (round, error) {
	r := round{counts: map[string]float64{}}
	w.ran = nil // let the last round's clusters go
	var remediation []float64
	for i := 0; i < w.scenarios; i++ {
		l := newLive(w.opts, instanceSeed(w.seed, index*w.scenarios+i), tr)
		tr.nextOp()
		r.add(measure(func() {
			end := tr.begin("sim.run")
			l.loop.Start(l.act)
			l.c.Run(w.opts.horizon)
			end()
		}))
		if why := l.verify(); why != nil {
			r.fail(fmt.Errorf("scenario %d: %w", i, why))
		}
		w.ran = append(w.ran, l)
		remediation = append(remediation, l.remediations()...)

		l.addCounts(r.counts)
	}
	r.counts["remediation_p95_vs"] = monitor.Quantile(remediation, 0.95)
	return r, nil
}

// loopLayers fills the loop, drivers and sim metrics from the
// actuators of a round's scenarios.
func loopLayers(ran []*live, traced round, m map[string]float64) {
	var busy time.Duration
	var wakes, notifies, repairs, observes []time.Duration
	for _, l := range ran {
		busy += l.act.busy
		wakes = append(wakes, l.act.wakes...)
		notifies = append(notifies, l.act.notifies...)
		repairs = append(repairs, l.act.repairs...)
		observes = append(observes, l.act.observes...)
	}
	c := traced.counts
	m["loop.busy_s"] = busy.Seconds()
	m["loop.busy_share"] = busy.Seconds() / traced.wall.Seconds()
	m["sim.busy_s"] = traced.wall.Seconds() - busy.Seconds()
	m["loop.notify_us_p50"] = median(millis(notifies)) * 1000
	m["loop.repair_ms_p50"] = median(millis(repairs))
	m["loop.wake_p50_ms"] = median(millis(wakes))
	m["loop.wake_p90_ms"] = quantile(millis(wakes), 0.9)
	m["loop.wakes"] = c["wakes"]
	m["loop.solver_calls"] = c["solver_calls"]
	m["loop.sub_solves"] = c["sub_solves"]
	m["loop.repairs"] = c["repairs"]
	m["loop.failed_repairs"] = c["failed_repairs"]
	m["loop.partition_reuse_ratio"] = c["partition_reuses"] / c["wakes"]
	m["loop.coalesced_ratio"] = c["coalesced"] / c["events"]
	m["loop.violation_vs"] = c["violation_vs"]
	m["loop.remediation_p95_vs"] = c["remediation_p95_vs"]
	m["drivers.observe_ms_p50"] = median(millis(observes))
	m["drivers.actions_failed_ratio"] = c["actions_failed"] / c["actions"]
}

func (w *churnWorkload) layers(tr *tracer, traced round, m map[string]float64) error {
	loopLayers(w.ran, traced, m)
	m["sched.decide_ms"] = median(millis(tr.durations("sched.decide")))

	// The simulator on its own: a loop-less scenario of the same size
	// in which every vjob is placed by hand and just runs, advanced once
	// bare and once with the three watchers of a study attached.
	for _, watched := range []bool{false, true} {
		name := "sim.advance_w0"
		if watched {
			name = "sim.advance_w3"
		}
		for i := 0; i < 2; i++ {
			c, err := w.bareCluster(watched)
			if err != nil {
				return err
			}
			if i == 0 && !watched {
				vjobProbes(tr, c.Config(), m)
			}
			end := tr.begin(name)
			c.Run(w.opts.horizon)
			end()
		}
	}
	m["sim.advance_ms_w0"] = median(millis(tr.durations("sim.advance_w0")))
	m["sim.advance_ms_w3"] = median(millis(tr.durations("sim.advance_w3")))
	m["monitor.watch_overhead_ratio"] = m["sim.advance_ms_w3"] / m["sim.advance_ms_w0"]
	return nil
}

// bareCluster builds a cluster of the scenario's size without a loop:
// the initial vjobs are placed first-fit by hand and run their phases
// to the end.
func (w *churnWorkload) bareCluster(watched bool) (*sim.Cluster, error) {
	cfg := vjob.NewConfiguration()
	for i := 0; i < w.opts.nodes; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("node%03d", i), 2, 4096))
	}
	c := sim.New(cfg, duration.Default())
	rng := rand.New(rand.NewSource(refSeed))
	for i := 0; i < w.opts.initialVJobs; i++ {
		s := workload.NewSpec(fmt.Sprintf("vjob%03d", i), workload.Benchmarks[i%len(workload.Benchmarks)],
			workload.Classes[1+i%2], w.opts.vmsPerVJob, i, rng)
		s.Install(cfg, c)
		for _, v := range s.Job.VMs {
			placed := false
			for _, n := range cfg.Nodes() {
				if cfg.Fits(v, n.Name) && cfg.SetRunning(v.Name, n.Name) == nil {
					placed = true
					break
				}
			}
			if !placed {
				return nil, fmt.Errorf("sim probe: %s fits nowhere", v.Name)
			}
		}
	}
	if watched {
		monitor.WatchLedger(c, nil)
		monitor.WatchRecovery(c)
		sim.WatchInvariants(c)
	}
	return c, nil
}
