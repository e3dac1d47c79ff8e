package experiments

import (
	"strings"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
)

// quickChurnOptions shrinks the scenario so the comparison runs in
// seconds: a 64-node cluster, short workloads, a brief arrival window.
func quickChurnOptions() testbed.Options {
	return testbed.Options{
		Nodes: 64, NodeCPU: 2, NodeMemory: 4096,
		VJobs: 6, VMsPerVJob: 4,
		ArrivalRate: 1.0 / 40, ArrivalStop: 200,
		WorkScale: 0.2,
		Horizon:   2000,
		Interval:  30, Debounce: 5,
		// Sequential search: a portfolio race under a sub-second
		// budget would make the comparative assertions timing- and
		// core-count-dependent.
		Optimizer: core.Optimizer{Timeout: 100 * time.Millisecond, Workers: 1},
		Failures:  sim.FailureStorm{Base: 0.05},
		Seed:      7,
	}
}

func TestChurnBothModesConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("churn study solves repeatedly")
	}
	opts := quickChurnOptions()
	rows := ChurnStudy(opts)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	periodic, event := rows[0], rows[1]

	for _, r := range rows {
		if r.FinalViolations != 0 {
			t.Errorf("%s ended with %d capacity violations", r.Mode, r.FinalViolations)
		}
		if r.Arrived == 0 || r.Completed == 0 {
			t.Errorf("%s: arrived=%d completed=%d", r.Mode, r.Arrived, r.Completed)
		}
	}
	// Identical scenario on both sides.
	if periodic.Arrived != event.Arrived {
		t.Fatalf("scenarios diverged: %d vs %d arrivals", periodic.Arrived, event.Arrived)
	}
	// The event-driven loop must react to events rather than poll.
	if event.Stats.Events == 0 {
		t.Error("event-driven run observed no events")
	}
	if event.Stats.SolverCalls == 0 || periodic.Stats.SolverCalls == 0 {
		t.Fatalf("no solver calls: periodic=%+v event=%+v", periodic.Stats, event.Stats)
	}
	// The headline claims, on the comparable unit (sub-problem
	// optimizations): the event-driven loop spends fewer solves and
	// is exposed to violations for less time, at equal per-solve
	// budget. The quick scenario keeps healthy margins on both.
	if event.Stats.SubSolves >= periodic.Stats.SubSolves {
		t.Errorf("event-driven used %d sub-solves vs periodic %d",
			event.Stats.SubSolves, periodic.Stats.SubSolves)
	}
	if event.ViolationSeconds > periodic.ViolationSeconds {
		t.Errorf("event-driven violation-seconds %.0f vs periodic %.0f",
			event.ViolationSeconds, periodic.ViolationSeconds)
	}
	t.Logf("periodic: %+v viol=%.0f", periodic.Stats, periodic.ViolationSeconds)
	t.Logf("event:    %+v viol=%.0f", event.Stats, event.ViolationSeconds)
}

// TestChurnRemediationReconciles checks the span-derived remediation
// columns against monitor.WatchRecovery: aligned episode counts, and
// remediation <= recovery per episode (the reconfiguration span is
// clamped to the violation episode it closed).
func TestChurnRemediationReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("churn study solves repeatedly")
	}
	opts := quickChurnOptions()
	r := RunChurn(true, opts)

	if r.Episodes == 0 {
		t.Fatal("quick churn scenario produced no violation episodes")
	}
	if len(r.Recoveries) != r.Episodes || len(r.Remediations) != r.Episodes {
		t.Fatalf("episodes = %d but %d recoveries, %d remediations",
			r.Episodes, len(r.Recoveries), len(r.Remediations))
	}
	if r.MatchedEpisodes < 1 {
		t.Error("no episode matched a reconfiguration span")
	}
	if r.MatchedEpisodes > r.Episodes {
		t.Errorf("matched %d of %d episodes", r.MatchedEpisodes, r.Episodes)
	}
	for i := range r.Remediations {
		if r.Remediations[i] < 0 || r.Remediations[i] > r.Recoveries[i] {
			t.Errorf("episode %d: remediation %.1f outside [0, recovery %.1f]",
				i, r.Remediations[i], r.Recoveries[i])
		}
	}
	if r.RemediationMax < r.RemediationP95 || r.RemediationP95 < r.RemediationP50 {
		t.Errorf("quantiles not ordered: p50=%.1f p95=%.1f max=%.1f",
			r.RemediationP50, r.RemediationP95, r.RemediationMax)
	}
	// Span retention follows CollectSpans.
	if len(r.Spans) != 0 {
		t.Errorf("spans retained without CollectSpans: %d", len(r.Spans))
	}
	opts.CollectSpans = true
	r2 := RunChurn(true, opts)
	if len(r2.Spans) == 0 {
		t.Fatal("CollectSpans retained nothing")
	}
	// The tracer adds no randomness: the seeded scenario is unchanged.
	if r2.Episodes != r.Episodes || r2.Arrived != r.Arrived || r2.Stats != r.Stats {
		t.Errorf("span retention perturbed the run: %+v vs %+v", r2.Stats, r.Stats)
	}
}

func TestChurnRendering(t *testing.T) {
	rows := []ChurnResult{
		{Mode: "periodic", Summary: testbed.Summary{Switches: 10, ViolationSeconds: 1234}},
		{Mode: "event-driven", Summary: testbed.Summary{Switches: 4, ViolationSeconds: 321}},
	}
	rows[0].Stats.SubSolves = 100
	rows[1].Stats.SubSolves = 20
	table := ChurnTable(rows)
	if !strings.Contains(table, "periodic") || !strings.Contains(table, "event-driven") {
		t.Fatalf("table:\n%s", table)
	}
	if !strings.Contains(table, "5.0x fewer") {
		t.Fatalf("table missing the ratio line:\n%s", table)
	}
	csv := ChurnCSV(rows)
	if !strings.HasPrefix(csv, "mode,sub_solves") || len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("csv:\n%s", csv)
	}
}
