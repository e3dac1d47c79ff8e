package experiments

import (
	"bytes"
	"embed"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cwcs/internal/core"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
	"cwcs/internal/trace"
	"cwcs/internal/vjob"
)

// The chaos study replays the churn scenario under one adversarial
// condition per cell — correlated rack failures, flapping nodes,
// windowed monitoring-event loss, an action-failure storm — plus a
// trace-replay cell driving the loop from a recorded workload, and
// reports recovery-time distributions (p50/p95/max of violation
// episodes, monitor.WatchRecovery) and structural-breach counts per
// cell. The structural audit is always on: chaos that corrupts the
// configuration must fail the study, not just raise exposure.
//
// Every cell draws its chaos randomness from a dedicated stream at
// Seed+3 (bursts first, then flaps, then the event-loss filter), so
// the published Seed/Seed+1/Seed+2 streams of the workload generator,
// arrivals and action failures stay byte-identical to the churn
// study.

// ChaosScenarios lists the study's cells in run order.
func ChaosScenarios() []string {
	return []string{ScenarioBaseline, ScenarioBursts, ScenarioFlapping, ScenarioLoss, ScenarioStorm, ScenarioReplay}
}

// The scenario cell names.
const (
	// ScenarioBaseline is the untouched churn scenario: the control
	// cell the chaos cells are read against.
	ScenarioBaseline = "baseline"
	// ScenarioBursts injects correlated rack failures: every node of a
	// randomly drawn rack (a fence scope — the correlation domain of a
	// shared switch or PDU) receives an urgent drain order and a
	// NodeDown event at once, and returns Outage seconds later.
	ScenarioBursts = "rack-bursts"
	// ScenarioFlapping drives a set of nodes through rapid down/up
	// cycles, stressing the threshold hysteresis and the loop's
	// partition-cache invalidation.
	ScenarioFlapping = "flapping"
	// ScenarioLoss silently drops a fraction of the monitoring events
	// inside a window — partition-style staleness the loop must
	// survive via the periodic reconciliation sweep re-offering what
	// the cluster still disagrees about.
	ScenarioLoss = "event-loss"
	// ScenarioStorm spikes the action-failure rate far beyond the 2%
	// baseline inside a window (sim.FailureStorm).
	ScenarioStorm = "action-storm"
	// ScenarioReplay feeds the loop from a committed trace file
	// instead of the synthetic generator (trace.StartReplay).
	ScenarioReplay = "trace-replay"
)

// ChaosOptions parameterizes the chaos study.
type ChaosOptions struct {
	// Churn is the underlying cluster/workload scenario (the chaos
	// cells perturb it; Failures.Base stays the flat baseline).
	Churn testbed.Options
	// Scenarios are the cells to run; empty means ChaosScenarios().
	Scenarios []string

	// Racks is how many fence-scoped racks the nodes split into
	// (contiguous index ranges); Bursts how many rack failures to
	// draw in [BurstFrom, BurstUntil), each lasting Outage seconds.
	Racks, Bursts         int
	BurstFrom, BurstUntil float64
	Outage                float64

	// Flappers is how many nodes flap (spread over the index space)
	// inside [FlapFrom, FlapUntil), with Exp(MeanDown)/Exp(MeanUp)
	// down/up intervals.
	Flappers            int
	FlapFrom, FlapUntil float64
	MeanDown, MeanUp    float64

	// Loss is the monitoring-event drop schedule of the event-loss
	// cell.
	Loss sim.EventLoss

	// StormRate/StormFrom/StormUntil are the action-storm cell's
	// failure spike.
	StormRate             float64
	StormFrom, StormUntil float64

	// ResyncInterval is the anti-entropy sweep period: every interval
	// the harness compares the desired state with the configuration
	// and re-offers events for anything stale — persistent capacity
	// violations, still-waiting VMs, finished-but-present vjobs. This
	// is what lets the loop survive event loss: a dropped event's
	// condition is re-detected and re-offered until one gets through.
	// 0 defaults to 60 s.
	ResyncInterval float64

	// Trace names the committed sample trace the replay cell decodes
	// (SampleTraces lists them).
	Trace string
}

// DefaultChaosOptions is the full-size scenario of `experiments chaos`:
// the 500-node churn cluster, each chaos window opening after the
// arrival wave.
func DefaultChaosOptions() ChaosOptions {
	churn := DefaultChurnOptions()
	churn.ArrivalStop = 600
	churn.Horizon = 3600
	return ChaosOptions{
		Churn: churn,
		Racks: 10, Bursts: 3, BurstFrom: 600, BurstUntil: 1800, Outage: 400,
		Flappers: 8, FlapFrom: 600, FlapUntil: 1800, MeanDown: 30, MeanUp: 120,
		Loss:      sim.EventLoss{From: 600, Until: 1500},
		StormRate: 0.30, StormFrom: 600, StormUntil: 1200,
		Trace: "web-tide",
	}
}

func (o ChaosOptions) scenarios() []string {
	if len(o.Scenarios) == 0 {
		return ChaosScenarios()
	}
	return o.Scenarios
}

func (o ChaosOptions) resyncInterval() float64 {
	if o.ResyncInterval <= 0 {
		return 60
	}
	return o.ResyncInterval
}

// ChaosResult is one scenario cell's measurements: the recovery-time
// distribution (Summary.Episodes, RecoveryP50/P95/Max, Unrecovered)
// and Summary.Breaches, always audited and required to be 0.
type ChaosResult struct {
	// Scenario is the cell name (ChaosScenarios).
	Scenario string
	// Dropped counts monitoring events the loss filter discarded.
	Dropped int
	testbed.Summary
}

// RunChaos replays one scenario cell. It fixes Churn.Decision
// (sched.Consolidation), Churn.EventDriven and Churn.WatchInvariants,
// reduces Churn.Failures to its Base outside the action-storm cell, and
// runs every other field of Churn as given. Unknown scenario names
// panic: they are programmer errors, not measurements.
func RunChaos(scenario string, opts ChaosOptions) ChaosResult {
	o := opts.Churn
	chaosRng := rand.New(rand.NewSource(o.Seed + 3))
	o.Decision = sched.Consolidation{}
	o.EventDriven = true
	o.WatchInvariants = true
	// Action failures: the flat churn baseline everywhere, spiked by
	// the storm window in the action-storm cell. Identical stream
	// shape either way (one variate per action).
	o.Failures = sim.FailureStorm{Base: o.Failures.Base}
	if scenario == ScenarioStorm {
		o.Failures.Storm, o.Failures.From, o.Failures.Until = opts.StormRate, opts.StormFrom, opts.StormUntil
	}
	// The replay cell reads its population from the trace; every other
	// cell uses the churn generator.
	if scenario == ScenarioReplay {
		o.VJobs, o.ArrivalRate = 0, 0
	}
	tb := testbed.New(o)
	c, cfg := tb.Cluster, tb.Cluster.Config()

	res := ChaosResult{Scenario: scenario}

	// The event-loss cell interposes the drop filter on the feed. One
	// rng variate per offered event in that cell only — the other cells
	// leave the chaos stream where the planners left it.
	if scenario == ScenarioLoss {
		notify := tb.Feed
		drop := opts.Loss.Dropper(chaosRng)
		tb.Feed = func(ev core.Event) {
			if drop(c.Now()) {
				res.Dropped++
				return
			}
			notify(ev)
		}
	}

	if scenario == ScenarioReplay {
		recs, err := SampleTrace(opts.Trace)
		if err != nil {
			panic(err)
		}
		replay := trace.StartReplay(c, recs, tb.Feed)
		tb.Jobs = replay.Jobs
	}

	// Node-level chaos. A failed node is an urgent evacuation — exactly
	// the signal path of the maintenance lifecycle (testbed.Drain) —
	// and recovery is the Undrain + NodeUp pair.
	switch scenario {
	case ScenarioBursts:
		bursts := sim.PlanBursts(chaosRng, rackNames(tb.NodeName, o.Nodes, opts.Racks), sim.BurstOptions{
			Count: opts.Bursts, From: opts.BurstFrom, Until: opts.BurstUntil, Outage: opts.Outage,
		})
		for _, b := range bursts {
			b := b
			c.Schedule(b.At, func() {
				for _, n := range b.Nodes {
					tb.Drain(n)
				}
			})
			if b.RecoverAt > 0 {
				c.Schedule(b.RecoverAt, func() {
					for _, n := range b.Nodes {
						tb.Undrain(n)
					}
				})
			}
		}
	case ScenarioFlapping:
		flaps := sim.PlanFlaps(chaosRng, sim.FlapOptions{
			Nodes: spreadNodes(tb.NodeName, o.Nodes, opts.Flappers),
			From:  opts.FlapFrom, Until: opts.FlapUntil,
			MeanDown: opts.MeanDown, MeanUp: opts.MeanUp,
		})
		for _, tr := range flaps {
			tr := tr
			c.Schedule(tr.At, func() {
				if tr.Down {
					tb.Drain(tr.Node)
				} else {
					tb.Undrain(tr.Node)
				}
			})
		}
	}

	// The anti-entropy sweep: desired state vs configuration, offered
	// through the same (possibly lossy) feed. It is the loss cell's
	// recovery mechanism and a no-op wake source elsewhere (a clean
	// cluster re-offers nothing).
	var resync func()
	resync = func() {
		for _, ev := range reconcile(c, cfg, tb.Jobs()) {
			tb.Feed(ev)
		}
		c.Schedule(c.Now()+opts.resyncInterval(), resync)
	}
	c.Schedule(opts.resyncInterval(), resync)
	c.Schedule(o.Horizon, func() {}) // pin the clock for censoring

	res.Summary = tb.Run()
	return res
}

// rackNames splits the node index space into racks contiguous groups
// — the fence scopes rack failures take down together.
func rackNames(name func(int) string, nodes, racks int) [][]string {
	if racks < 1 {
		racks = 1
	}
	if racks > nodes {
		racks = nodes
	}
	out := make([][]string, racks)
	for i := 0; i < nodes; i++ {
		r := i * racks / nodes
		out[r] = append(out[r], name(i))
	}
	return out
}

// spreadNodes picks count node names evenly over the index space: the
// flapping nodes and the drain study's order targets.
func spreadNodes(name func(int) string, nodes, count int) []string {
	if count < 1 {
		return nil
	}
	if count > nodes {
		count = nodes
	}
	out := make([]string, count)
	for i := range out {
		out[i] = name(i * nodes / count)
	}
	return out
}

// reconcile compares the desired state with the configuration and
// returns events for everything stale: violated nodes (LoadChange),
// VMs still waiting (VMArrival), and finished vjobs whose VMs linger
// (VMDeparture). Deterministic order; empty when the cluster agrees.
func reconcile(c *sim.Cluster, cfg *vjob.Configuration, jobs []*vjob.VJob) []core.Event {
	var out []core.Event
	now := c.Now()
	var hot []string
	seen := map[string]bool{}
	for _, v := range cfg.Violations() {
		if !seen[v.Node] {
			seen[v.Node] = true
			hot = append(hot, v.Node)
		}
	}
	if len(hot) > 0 {
		ev := core.Event{Kind: core.LoadChange, At: now, Nodes: hot}
		for _, n := range hot {
			for _, v := range cfg.RunningOn(n) {
				ev.VMs = append(ev.VMs, v.Name)
			}
		}
		out = append(out, ev)
	}
	if waiting := cfg.InState(vjob.Waiting); len(waiting) > 0 {
		names := make([]string, len(waiting))
		for i, v := range waiting {
			names[i] = v.Name
		}
		out = append(out, core.Event{Kind: core.VMArrival, At: now, VMs: names})
	}
	var done []string
	for _, j := range jobs {
		if !c.VJobDone(j) {
			continue
		}
		for _, v := range j.VMs {
			if cfg.VM(v.Name) != nil {
				done = append(done, v.Name)
			}
		}
	}
	if len(done) > 0 {
		sort.Strings(done)
		out = append(out, core.Event{Kind: core.VMDeparture, At: now, VMs: done})
	}
	return out
}

// ChaosStudy runs every requested scenario cell.
func ChaosStudy(opts ChaosOptions) []ChaosResult {
	var rows []ChaosResult
	for _, s := range opts.scenarios() {
		rows = append(rows, RunChaos(s, opts))
	}
	return rows
}

// ChaosTable renders the study.
func ChaosTable(rows []ChaosResult) string {
	var b strings.Builder
	b.WriteString("Chaos study: recovery-time distributions and structural breaches per scenario (event-driven loop)\n")
	fmt.Fprintf(&b, "%-13s %8s %8s %8s %8s %8s %8s %6s %8s %8s %10s %8s %9s\n",
		"scenario", "episodes", "rec-p50", "rec-p95", "rec-max", "rem-p50", "rem-p95", "open", "dropped", "breaches", "viol-sec", "final", "done/arr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %8d %8.0f %8.0f %8.0f %8.0f %8.0f %6d %8d %8d %10.0f %8d %5d/%-3d\n",
			r.Scenario, r.Episodes, r.RecoveryP50, r.RecoveryP95, r.RecoveryMax,
			r.RemediationP50, r.RemediationP95,
			r.Unrecovered, r.Dropped, r.Breaches, r.ViolationSeconds,
			r.FinalViolations, r.Completed, r.Arrived)
	}
	return b.String()
}

// ChaosCSV renders the rows for external plotting.
func ChaosCSV(rows []ChaosResult) string {
	var b strings.Builder
	b.WriteString("scenario,episodes,recovery_p50,recovery_p95,recovery_max,remediation_p50,remediation_p95,remediation_max,matched_episodes,unrecovered,dropped,breaches,violation_seconds,final_violations,sub_solves,full_solves,repairs,switches,events,arrived,completed,end,top_vjob,top_vjob_viol_sec,top_node,top_node_viol_sec,rule_breach_sec\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%d,%d,%d,%d,%.1f,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%s,%.1f,%s,%.1f,%.1f\n",
			r.Scenario, r.Episodes, r.RecoveryP50, r.RecoveryP95, r.RecoveryMax,
			r.RemediationP50, r.RemediationP95, r.RemediationMax, r.MatchedEpisodes,
			r.Unrecovered, r.Dropped, r.Breaches, r.ViolationSeconds, r.FinalViolations,
			r.Stats.SubSolves, r.Stats.FullSolves, r.Stats.Repairs, r.Switches,
			r.Stats.Events, r.Arrived, r.Completed, r.End,
			r.TopVJob, r.TopVJobSeconds, r.TopNode, r.TopNodeSeconds, r.RuleBreachSeconds)
	}
	return b.String()
}

//go:embed traces/*.jsonl
var sampleTraces embed.FS

// SampleTraces lists the committed sample traces by name.
func SampleTraces() []string {
	entries, err := sampleTraces.ReadDir("traces")
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		out = append(out, strings.TrimSuffix(e.Name(), ".jsonl"))
	}
	sort.Strings(out)
	return out
}

// SampleTrace decodes one committed sample trace by name.
func SampleTrace(name string) ([]trace.Record, error) {
	data, err := sampleTraces.ReadFile("traces/" + name + ".jsonl")
	if err != nil {
		return nil, fmt.Errorf("experiments: unknown sample trace %q (have %v)", name, SampleTraces())
	}
	return trace.Decode(bytes.NewReader(data))
}
