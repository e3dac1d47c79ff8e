package experiments

import (
	"strings"
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/testbed"
)

// quickRepairStormOptions shrinks the storm study to one rate on the
// quick churn cluster, with the structural audit on.
func quickRepairStormOptions(rates ...float64) RepairStormOptions {
	churn := quickChurnOptions()
	churn.WatchInvariants = true
	return RepairStormOptions{Churn: churn, Rates: rates}
}

// TestRepairStormTenPercent is the failure-storm loop test of the
// cross-slice repair fix (run under -race by the race target): at 10%
// action-failure rate the widened loop must keep the structural
// invariants intact, convert fallbacks into splices (FailedRepairs
// bounded by the widening-off run), and still converge.
func TestRepairStormTenPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("storm study solves repeatedly")
	}
	rows := RepairStormStudy(quickRepairStormOptions(0.10))
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want off/on pair", len(rows))
	}
	off, on := rows[0], rows[1]
	if off.Widen || !on.Widen {
		t.Fatalf("cell order wrong: %+v", rows)
	}
	for _, r := range rows {
		if r.Breaches != 0 {
			t.Errorf("widen=%v: %d structural invariant breaches", r.Widen, r.Breaches)
		}
		if r.FinalViolations != 0 {
			t.Errorf("widen=%v: ended with %d capacity violations", r.Widen, r.FinalViolations)
		}
	}
	// The storm must actually exercise the repair path on both sides…
	if off.Stats.Repairs+off.Stats.FailedRepairs == 0 {
		t.Fatalf("storm never reached the repair path: %+v", off)
	}
	// …and widening must bound FailedRepairs by the refuse-and-fall-
	// back baseline while never splicing less.
	if on.Stats.FailedRepairs > off.Stats.FailedRepairs {
		t.Errorf("widening increased failed repairs: %d > %d", on.Stats.FailedRepairs, off.Stats.FailedRepairs)
	}
	if on.Stats.Repairs < off.Stats.Repairs {
		t.Errorf("widening reduced successful splices: %d < %d", on.Stats.Repairs, off.Stats.Repairs)
	}
	t.Logf("off: %+v", off)
	t.Logf("on:  %+v", on)
}

func TestRepairStormRendering(t *testing.T) {
	rows := []RepairStormResult{
		{Rate: 0.10, Widen: false, Summary: testbed.Summary{
			Stats: core.LoopStats{Repairs: 12, FailedRepairs: 10, FullSolves: 3}, ViolationSeconds: 900, Switches: 20}},
		{Rate: 0.10, Widen: true, Summary: testbed.Summary{
			Stats: core.LoopStats{Repairs: 21, WidenedRepairs: 8, RepairExpansions: 11, FailedRepairs: 1}, ViolationSeconds: 700, Switches: 20}},
	}
	table := RepairStormTable(rows)
	if !strings.Contains(table, "90% of former failed repairs recovered") {
		t.Fatalf("table missing the recovered line:\n%s", table)
	}
	if got := RecoveredFraction(rows[0], rows[1]); got != 0.9 {
		t.Fatalf("RecoveredFraction = %.2f, want 0.90", got)
	}
	// Degenerate pairs must not divide by zero or report recovery.
	if got := RecoveredFraction(RepairStormResult{}, RepairStormResult{}); got != 0 {
		t.Fatalf("RecoveredFraction(zero) = %.2f", got)
	}
}

// TestGoldenRepairStormCSV pins the storm CSV schema from synthetic
// rows, like the figure exports.
func TestGoldenRepairStormCSV(t *testing.T) {
	rows := []RepairStormResult{
		{Rate: 0.05, Widen: false, Summary: testbed.Summary{
			Stats: core.LoopStats{Repairs: 9, FailedRepairs: 4, FullSolves: 2}, ViolationSeconds: 512.5, Switches: 14,
			TopVJob: "vjob002", TopVJobSeconds: 256.5, TopNode: "node011", TopNodeSeconds: 300}},
		{Rate: 0.05, Widen: true, Summary: testbed.Summary{
			Stats: core.LoopStats{Repairs: 13, WidenedRepairs: 3, RepairExpansions: 4, FailedRepairs: 0}, ViolationSeconds: 430, Switches: 14,
			TopVJob: "vjob002", TopVJobSeconds: 215, TopNode: "node011", TopNodeSeconds: 240}},
		{Rate: 0.20, Widen: false, Summary: testbed.Summary{
			Stats: core.LoopStats{Repairs: 15, FailedRepairs: 22, FullSolves: 9}, ViolationSeconds: 2048, FinalViolations: 1, Switches: 31}},
		{Rate: 0.20, Widen: true, Summary: testbed.Summary{
			Stats: core.LoopStats{Repairs: 33, WidenedRepairs: 12, RepairExpansions: 19, FailedRepairs: 4, FullSolves: 1}, ViolationSeconds: 1536, Switches: 31}},
	}
	checkGolden(t, "repairstorm.csv.golden", RepairStormCSV(rows))
}
