package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
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
	testbed.Summary
}

// testbedOptions is the churn scenario as the harness takes it; the
// chaos cells perturb the same one.
func (o ChurnOptions) testbedOptions() testbed.Options {
	return testbed.Options{
		Nodes: o.Nodes, NodeCPU: o.NodeCPU, NodeMemory: o.NodeMemory,
		VJobs: o.InitialVJobs, VMsPerVJob: o.VMsPerVJob,
		WorkScale:   o.WorkScale,
		ArrivalRate: o.ArrivalRate, ArrivalStop: o.ArrivalStop,
		Seed:        o.Seed,
		Decision:    sched.Consolidation{},
		Optimizer:   core.Optimizer{Timeout: o.Timeout, Workers: o.Workers, Partitions: o.Partitions},
		Debounce:    o.Debounce,
		RepairWiden: o.RepairWiden,
		// Injected action failures (the flaky-driver model), optionally
		// spiked by a storm window. The storm draws the same one-variate-
		// per-action stream as the flat rate, so seeded runs stay
		// comparable across rates.
		Failures: sim.FailureStorm{
			Base: o.FailureRate, Storm: o.StormRate,
			From: o.StormFrom, Until: o.StormUntil,
		},
		WatchInvariants: o.WatchInvariants,
		CollectSpans:    o.CollectSpans,
	}
}

// RunChurn replays the churn scenario under one loop schedule. The
// periodic loop ignores the event feed entirely.
func RunChurn(eventDriven bool, opts ChurnOptions) ChurnResult {
	o := opts.testbedOptions()
	o.Interval = opts.Interval
	o.EventDriven = eventDriven
	o.StopWhenDone = true
	res := ChurnResult{Mode: "periodic"}
	if eventDriven {
		res.Mode = "event-driven"
	}
	res.Summary = testbed.New(o).Run(opts.Horizon)
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
