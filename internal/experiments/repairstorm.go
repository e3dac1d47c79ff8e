package experiments

import (
	"fmt"
	"strings"

	"cwcs/internal/testbed"
)

// RepairStormOptions parameterizes the repair-storm study: the churn
// scenario pushed past its flat 2% action-failure rate, replayed at
// each storm rate twice — widening disabled (the PR 3 refuse-and-
// fall-back behavior) and enabled — to measure how many former failed
// repairs the region-widening splice recovers, and what it costs in
// violation exposure. Event-driven only: the periodic loop has no
// repair path to storm.
type RepairStormOptions struct {
	// Churn is the underlying scenario; Failures.Base and RepairWiden
	// are overridden per cell.
	Churn testbed.Options
	// Rates are the action-failure rates swept.
	Rates []float64
}

// DefaultRepairStormOptions is the full-size scenario of `experiments
// repairstorm`: the 500-node churn cluster at 5/10/20% action-failure
// rates, with the structural-invariant audit on (a widened splice that
// corrupted the plan would surface here, not just in
// violation-seconds).
func DefaultRepairStormOptions() RepairStormOptions {
	churn := DefaultChurnOptions()
	churn.WatchInvariants = true
	return RepairStormOptions{Churn: churn, Rates: []float64{0.05, 0.10, 0.20}}
}

// RepairStormResult is one (rate, widening) cell of the study: the
// cell's run summary, whose Stats carry the repair counters (Repairs,
// WidenedRepairs, RepairExpansions, FailedRepairs, FullSolves).
type RepairStormResult struct {
	// Rate is the action-failure rate of the cell.
	Rate float64
	// Widen reports whether region-widening was enabled.
	Widen bool
	testbed.Summary
}

// RepairStormStudy replays the scenario for every (rate, widening)
// cell. Within a rate the two cells replay the identical seeded
// scenario, so their repair counters are directly comparable.
func RepairStormStudy(opts RepairStormOptions) []RepairStormResult {
	var rows []RepairStormResult
	for _, rate := range opts.Rates {
		for _, widen := range []bool{false, true} {
			co := opts.Churn
			co.Failures.Base = rate
			co.RepairWiden = -1
			if widen {
				co.RepairWiden = 0
			}
			rows = append(rows, RepairStormResult{Rate: rate, Widen: widen, Summary: RunChurn(true, co).Summary})
		}
	}
	return rows
}

// RecoveredFraction reports, for one rate's (off, on) pair, the share
// of the widening-off FailedRepairs that became successful splices
// with widening on. 1.0 means every former fallback now splices.
func RecoveredFraction(off, on RepairStormResult) float64 {
	if off.Stats.FailedRepairs == 0 {
		return 0
	}
	rec := off.Stats.FailedRepairs - on.Stats.FailedRepairs
	if rec < 0 {
		rec = 0
	}
	return float64(rec) / float64(off.Stats.FailedRepairs)
}

// RepairStormTable renders the study with one recovered-fraction line
// per rate.
func RepairStormTable(rows []RepairStormResult) string {
	var b strings.Builder
	b.WriteString("Repair storm: region-widening off vs on under action-failure storms (event-driven loop)\n")
	fmt.Fprintf(&b, "%6s %5s %8s %8s %8s %8s %8s %10s %8s %9s\n",
		"rate", "widen", "repairs", "widened", "expand", "failed", "full", "viol-sec", "final", "breaches")
	for _, r := range rows {
		widen := "off"
		if r.Widen {
			widen = "on"
		}
		fmt.Fprintf(&b, "%5.0f%% %5s %8d %8d %8d %8d %8d %10.0f %8d %9d\n",
			r.Rate*100, widen, r.Stats.Repairs, r.Stats.WidenedRepairs, r.Stats.RepairExpansions,
			r.Stats.FailedRepairs, r.Stats.FullSolves, r.ViolationSeconds, r.FinalViolations, r.Breaches)
	}
	for i := 0; i+1 < len(rows); i += 2 {
		off, on := rows[i], rows[i+1]
		if off.Widen || !on.Widen || off.Rate != on.Rate {
			continue
		}
		fmt.Fprintf(&b, "rate %.0f%%: %.0f%% of former failed repairs recovered by widening (%d -> %d), violation-seconds %.0f -> %.0f\n",
			off.Rate*100, RecoveredFraction(off, on)*100,
			off.Stats.FailedRepairs, on.Stats.FailedRepairs, off.ViolationSeconds, on.ViolationSeconds)
	}
	return b.String()
}

// RepairStormCSV renders the rows for external plotting.
func RepairStormCSV(rows []RepairStormResult) string {
	var b strings.Builder
	b.WriteString("rate,widen,repairs,widened_repairs,repair_expansions,failed_repairs,full_solves,violation_seconds,final_violations,breaches,switches,top_vjob,top_vjob_viol_sec,top_node,top_node_viol_sec\n")
	for _, r := range rows {
		widen := "off"
		if r.Widen {
			widen = "on"
		}
		fmt.Fprintf(&b, "%.2f,%s,%d,%d,%d,%d,%d,%.1f,%d,%d,%d,%s,%.1f,%s,%.1f\n",
			r.Rate, widen, r.Stats.Repairs, r.Stats.WidenedRepairs, r.Stats.RepairExpansions,
			r.Stats.FailedRepairs, r.Stats.FullSolves, r.ViolationSeconds, r.FinalViolations,
			r.Breaches, r.Switches, r.TopVJob, r.TopVJobSeconds, r.TopNode, r.TopNodeSeconds)
	}
	return b.String()
}
