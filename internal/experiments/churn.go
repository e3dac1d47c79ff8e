package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// ChurnOptions parameterizes the periodic-vs-event-driven loop study:
// a cluster under continuous churn — Poisson vjob arrivals, natural
// departures as workloads finish, load spikes as phases shift, and
// injected action failures — handled by the same optimizer under two
// control-loop schedules. No paper analogue: the paper's loop is
// periodic (§3.1); the event-driven engine is this repo's extension.
type ChurnOptions struct {
	// Nodes, NodeCPU, NodeMemory describe the cluster.
	Nodes, NodeCPU, NodeMemory int
	// InitialVJobs and VMsPerVJob shape the resident population.
	InitialVJobs, VMsPerVJob int
	// ArrivalRate is the Poisson vjob arrival rate per virtual second;
	// arrivals stop at ArrivalStop so the run can drain.
	ArrivalRate float64
	ArrivalStop float64
	// WorkScale multiplies workload durations.
	WorkScale float64
	// Horizon is the simulation cut-off.
	Horizon float64
	// Interval is the periodic loop's pause; Debounce the event-driven
	// loop's settle delay.
	Interval, Debounce float64
	// Timeout bounds every optimizer invocation — the equal budget of
	// the comparison.
	Timeout time.Duration
	// Workers and Partitions configure the optimizer identically on
	// both sides.
	Workers, Partitions int
	// FailureRate is the probability an action fails on completion
	// (exercising the repair path).
	FailureRate float64
	// StormRate, StormFrom and StormUntil overlay a failure storm on
	// FailureRate: inside [StormFrom, StormUntil) actions fail at
	// StormRate instead (see sim.FailureStorm). A zero-length window
	// keeps the flat rate.
	StormRate             float64
	StormFrom, StormUntil float64
	// RepairWiden is handed to core.Loop.RepairWiden: 0 keeps the
	// default region-widening bound, negative disables widening (the
	// refuse-and-fall-back behavior, for A/B studies).
	RepairWiden int
	// WatchInvariants attaches sim.WatchInvariants and reports its
	// structural-breach count; off by default because the audit runs
	// after every simulation event.
	WatchInvariants bool
	// CollectSpans retains every closed span of the run in
	// ChurnResult.Spans (the -trace-out export). The reconfiguration
	// spans feeding the remediation columns are always collected;
	// this widens retention to the full pipeline.
	CollectSpans bool
	// Seed drives workload generation, arrivals and failures; the two
	// modes replay the identical scenario.
	Seed int64
}

// DefaultChurnOptions is the BENCH_eventloop.json scenario: 500 nodes
// under sustained churn.
func DefaultChurnOptions() ChurnOptions {
	return ChurnOptions{
		Nodes: 500, NodeCPU: 2, NodeMemory: 4096,
		InitialVJobs: 40, VMsPerVJob: 9,
		ArrivalRate: 1.0 / 30, ArrivalStop: 900,
		WorkScale: 1.0,
		Horizon:   6000,
		Interval:  30, Debounce: 5,
		Timeout:     500 * time.Millisecond,
		FailureRate: 0.02,
		Seed:        42,
	}
}

// ChurnResult is one mode's measurements over the scenario.
type ChurnResult struct {
	Mode string
	// Stats is the loop telemetry: solver invocations, slice solves,
	// repairs, coalesced events.
	Stats core.LoopStats
	// Switches counts executed context switches; Failures the failed
	// actions across them.
	Switches, Failures int
	// ViolationSeconds integrates len(Violations()) over virtual time:
	// the cumulative exposure to capacity violations.
	ViolationSeconds float64
	// FinalViolations is the violation count at the horizon (0 = the
	// loop reached a violation-free configuration).
	FinalViolations int
	// Breaches is the structural invariant-breach count (only audited
	// when ChurnOptions.WatchInvariants is set; always expected 0).
	Breaches int
	// Arrived and Completed count vjobs over the run.
	Arrived, Completed int
	// End is the virtual time the simulation went quiescent.
	End float64
	// Wall is the real time the run took (dominated by solver budget).
	Wall time.Duration
	// Episodes counts closed violation episodes
	// (monitor.WatchRecovery); Recoveries and Remediations are the
	// aligned per-episode recovery and event-to-remediation times.
	// Remediation clamps the causal reconfiguration span to the
	// episode, so remediation <= recovery per episode by
	// construction; MatchedEpisodes counts episodes a span actually
	// covered (the rest fall back to the full recovery time).
	Episodes        int
	MatchedEpisodes int
	Recoveries      []float64
	Remediations    []float64
	// RemediationP50/P95/Max summarize Remediations (nearest rank).
	RemediationP50, RemediationP95, RemediationMax float64
	// Spans is the retained span stream when CollectSpans is set.
	Spans []obs.SpanRecord
	// Ledger is the per-entity attribution behind ViolationSeconds
	// (ViolationSeconds == Ledger.Total() by construction). TopVJob /
	// TopNode name the worst-suffering vjob and node with their
	// violation-second integrals (empty when the run stayed clean);
	// RuleBreachSeconds integrates structural placement-rule breaches.
	Ledger            *monitor.Ledger
	TopVJob           string
	TopVJobSeconds    float64
	TopNode           string
	TopNodeSeconds    float64
	RuleBreachSeconds float64
	// Records lists every non-empty context switch; ActionCounts and
	// LocalOps/RemoteOps are the simulator's completed-action and
	// transfer tallies.
	Records             []core.SwitchRecord
	ActionCounts        map[string]int
	LocalOps, RemoteOps int
}

// RunChurn replays the churn scenario under one loop schedule.
func RunChurn(eventDriven bool, opts ChurnOptions) ChurnResult {
	genRng := rand.New(rand.NewSource(opts.Seed))
	arrRng := rand.New(rand.NewSource(opts.Seed + 1))
	failRng := rand.New(rand.NewSource(opts.Seed + 2))

	cfg := vjob.NewConfiguration()
	for i := 0; i < opts.Nodes; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("node%03d", i), opts.NodeCPU, opts.NodeMemory))
	}
	c := sim.New(cfg, duration.Default())

	var jobs []*vjob.VJob
	submit := func(i int) workload.Spec {
		bench := workload.Benchmarks[i%len(workload.Benchmarks)]
		class := workload.Classes[1+i%2]
		spec := workload.NewSpec(fmt.Sprintf("vjob%03d", i), bench, class, opts.VMsPerVJob, i, genRng)
		scalePhases(&spec, opts.WorkScale)
		spec.Install(cfg, c)
		jobs = append(jobs, spec.Job)
		return spec
	}
	for i := 0; i < opts.InitialVJobs; i++ {
		submit(i)
	}

	res := ChurnResult{Mode: "periodic", Arrived: opts.InitialVJobs}
	if eventDriven {
		res.Mode = "event-driven"
	}

	// The span stream is the study's latency instrument: the closed
	// reconfiguration spans yield the event-to-remediation columns, and
	// CollectSpans widens retention to the whole pipeline (-trace-out).
	// The tracer adds no randomness, so seeded runs stay byte-identical.
	tracer := obs.NewTracer(0)
	var reconfigs []obs.SpanRecord
	tracer.OnClose(func(r obs.SpanRecord) {
		if r.Kind == obs.KindReconfig.String() {
			reconfigs = append(reconfigs, r)
		}
		if opts.CollectSpans {
			res.Spans = append(res.Spans, r)
		}
	})

	loop := &core.Loop{
		// The terminator reads the live (growing) jobs slice through
		// the closure, not a snapshot.
		Decision:    sched.Terminator{Inner: sched.Consolidation{}, Finished: c.VJobDone, Jobs: func() []*vjob.VJob { return jobs }},
		Trace:       tracer,
		Optimizer:   core.Optimizer{Timeout: opts.Timeout, Workers: opts.Workers, Partitions: opts.Partitions},
		Interval:    opts.Interval,
		EventDriven: eventDriven,
		Debounce:    opts.Debounce,
		RepairWiden: opts.RepairWiden,
		Queue:       func() []*vjob.VJob { return jobs },
		Done: func() bool {
			if c.Now() <= opts.ArrivalStop {
				return false
			}
			for _, j := range jobs {
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
		},
	}

	act := &drivers.Actuator{C: c, Trace: tracer}

	// Injected action failures (the flaky-driver model), optionally
	// spiked by a storm window. The storm draws the same one-variate-
	// per-action stream as the flat rate, so seeded runs stay
	// comparable across rates.
	if opts.FailureRate > 0 || opts.StormRate > 0 {
		c.InstallFailureStorm(failRng, sim.FailureStorm{
			Base: opts.FailureRate, Storm: opts.StormRate,
			From: opts.StormFrom, Until: opts.StormUntil,
		})
	}

	var inv *sim.Invariants
	if opts.WatchInvariants {
		inv = sim.WatchInvariants(c)
	}

	// Event feed: load changes from the simulator, arrivals from the
	// churn generator. The periodic loop ignores Notify entirely.
	if eventDriven {
		c.OnLoadChange(func(vm string) {
			loop.Notify(act, core.Event{Kind: core.LoadChange, At: c.Now(), VMs: []string{vm}})
		})
	}

	// Poisson arrivals until ArrivalStop.
	idx := opts.InitialVJobs
	var scheduleArrival func()
	scheduleArrival = func() {
		dt := arrRng.ExpFloat64() / opts.ArrivalRate
		at := c.Now() + dt
		if at > opts.ArrivalStop {
			return
		}
		c.Schedule(at, func() {
			spec := submit(idx)
			idx++
			res.Arrived++
			if eventDriven {
				names := make([]string, len(spec.Job.VMs))
				for i, v := range spec.Job.VMs {
					names[i] = v.Name
				}
				loop.Notify(act, core.Event{Kind: core.VMArrival, At: c.Now(), VMs: names})
			}
			scheduleArrival()
		})
	}
	if opts.ArrivalRate > 0 {
		scheduleArrival()
	}

	led := monitor.WatchLedger(c, nil)
	recovery := monitor.WatchRecovery(c)

	start := time.Now()
	loop.Start(act)
	c.Run(opts.Horizon)
	res.Wall = time.Since(start)
	res.ViolationSeconds = led.Total()
	res.Ledger = led
	if top := led.TopVJobs(1); len(top) > 0 {
		res.TopVJob, res.TopVJobSeconds = top[0].VJob, top[0].Seconds
	}
	if top := led.TopNodes(1); len(top) > 0 {
		res.TopNode, res.TopNodeSeconds = top[0].Node, top[0].Seconds
	}
	res.RuleBreachSeconds = led.RuleBreachSeconds()
	recovery.CloseAt(c.Now())
	res.Episodes = recovery.Episodes()
	res.Recoveries = recovery.Durations
	res.Remediations, res.MatchedEpisodes = obs.RemediationTimes(reconfigs, recovery.Starts, recovery.Durations)
	res.RemediationP50 = monitor.Quantile(res.Remediations, 0.50)
	res.RemediationP95 = monitor.Quantile(res.Remediations, 0.95)
	res.RemediationMax = monitor.Quantile(res.Remediations, 1)

	res.Stats = loop.Stats
	res.Records = loop.Records
	res.ActionCounts = c.ActionCounts()
	res.LocalOps, res.RemoteOps = c.TransferCounts()
	res.Switches = len(loop.Records)
	for _, r := range loop.Records {
		res.Failures += r.Failures
	}
	res.FinalViolations = len(cfg.Violations())
	if inv != nil {
		res.Breaches = inv.StructuralCount()
	}
	res.End = c.Now()
	for _, j := range jobs {
		if c.VJobDone(j) {
			res.Completed++
		}
	}
	return res
}

// ChurnStudy runs the scenario under both schedules.
func ChurnStudy(opts ChurnOptions) []ChurnResult {
	return []ChurnResult{RunChurn(false, opts), RunChurn(true, opts)}
}

// ChurnTable renders the comparison.
func ChurnTable(rows []ChurnResult) string {
	var b strings.Builder
	b.WriteString("Periodic vs event-driven reconfiguration loop (equal per-solve budget)\n")
	fmt.Fprintf(&b, "%-12s %9s %8s %8s %8s %8s %8s %10s %8s %9s %8s %8s %8s %-12s\n",
		"mode", "subsolves", "slices", "full", "repairs", "switches", "events", "viol-sec", "final", "done/arr",
		"episodes", "rem-p50", "rem-p95", "top-vjob")
	for _, r := range rows {
		top := "-"
		if r.TopVJob != "" {
			top = fmt.Sprintf("%s:%.0f", r.TopVJob, r.TopVJobSeconds)
		}
		fmt.Fprintf(&b, "%-12s %9d %8d %8d %8d %8d %8d %10.0f %8d %5d/%-3d %8d %8.1f %8.1f %-12s\n",
			r.Mode, r.Stats.SubSolves, r.Stats.SliceSolves, r.Stats.FullSolves,
			r.Stats.Repairs, r.Switches, r.Stats.Events,
			r.ViolationSeconds, r.FinalViolations, r.Completed, r.Arrived,
			r.Episodes, r.RemediationP50, r.RemediationP95, top)
	}
	if len(rows) == 2 && rows[1].Stats.SubSolves > 0 {
		fmt.Fprintf(&b, "solver invocations: %.1fx fewer; violation-seconds: %sx lower (event-driven vs periodic)\n",
			ratio(float64(rows[0].Stats.SubSolves), float64(rows[1].Stats.SubSolves)),
			ratioStr(rows[0].ViolationSeconds, rows[1].ViolationSeconds))
	}
	return b.String()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}

func ratioStr(a, b float64) string {
	r := ratio(a, b)
	if math.IsInf(r, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.1f", r)
}

// ChurnCSV renders the rows for external plotting.
func ChurnCSV(rows []ChurnResult) string {
	var b strings.Builder
	b.WriteString("mode,sub_solves,solver_calls,slice_solves,full_solves,repairs,failed_repairs,switches,events,coalesced,violation_seconds,final_violations,arrived,completed,end,episodes,matched_episodes,remediation_p50,remediation_p95,remediation_max,top_vjob,top_vjob_viol_sec,top_node,top_node_viol_sec,rule_breach_sec\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%d,%d,%d,%.0f,%d,%d,%.1f,%.1f,%.1f,%s,%.1f,%s,%.1f,%.1f\n",
			r.Mode, r.Stats.SubSolves, r.Stats.SolverCalls, r.Stats.SliceSolves, r.Stats.FullSolves,
			r.Stats.Repairs, r.Stats.FailedRepairs, r.Switches, r.Stats.Events,
			r.Stats.Coalesced, r.ViolationSeconds, r.FinalViolations,
			r.Arrived, r.Completed, r.End,
			r.Episodes, r.MatchedEpisodes, r.RemediationP50, r.RemediationP95, r.RemediationMax,
			r.TopVJob, r.TopVJobSeconds, r.TopNode, r.TopNodeSeconds, r.RuleBreachSeconds)
	}
	return b.String()
}
