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

// DefaultChurnOptions is the full-size scenario of `experiments churn`,
// the periodic-vs-event-driven loop study: 500 nodes under sustained
// churn — Poisson vjob arrivals until ArrivalStop, natural departures as
// workloads finish, load spikes as phases shift, and 2% of actions
// failing on completion (exercising the repair path) — handled by the
// same optimizer under two control-loop schedules. No paper analogue:
// the paper's loop is periodic (§3.1); the event-driven engine is this
// repo's extension.
func DefaultChurnOptions() testbed.Options {
	return testbed.Options{
		Nodes: 500, NodeCPU: 2, NodeMemory: 4096,
		VJobs: 40, VMsPerVJob: 9,
		ArrivalRate: 1.0 / 30, ArrivalStop: 900,
		WorkScale: 1.0,
		Horizon:   6000,
		Interval:  30, Debounce: 5,
		// The equal per-solve budget of the comparison.
		Optimizer: core.Optimizer{Timeout: 500 * time.Millisecond},
		Failures:  sim.FailureStorm{Base: 0.02},
		Seed:      42,
	}
}

// ChurnResult is one mode's measurements over the scenario.
type ChurnResult struct {
	Mode string
	testbed.Summary
}

// RunChurn replays the churn scenario under one loop schedule. It fixes
// Decision (sched.Consolidation), EventDriven and StopWhenDone, and
// runs every other field of o as given. The periodic loop ignores the
// event feed entirely.
func RunChurn(eventDriven bool, o testbed.Options) ChurnResult {
	o.Decision = sched.Consolidation{}
	o.EventDriven = eventDriven
	o.StopWhenDone = true
	res := ChurnResult{Mode: "periodic"}
	if eventDriven {
		res.Mode = "event-driven"
	}
	res.Summary = testbed.New(o).Run()
	return res
}

// ChurnStudy runs the scenario under both schedules; they replay the
// identical seeded scenario.
func ChurnStudy(o testbed.Options) []ChurnResult {
	return []ChurnResult{RunChurn(false, o), RunChurn(true, o)}
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
