package experiments

import (
	"strings"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
)

// quickChaosOptions shrinks the chaos study so every cell runs in
// seconds: a small cluster, short workloads, chaos windows opening
// right after the arrival wave.
func quickChaosOptions() ChaosOptions {
	return ChaosOptions{
		Churn: testbed.Options{
			Nodes: 48, NodeCPU: 2, NodeMemory: 4096,
			VJobs: 5, VMsPerVJob: 4,
			ArrivalRate: 1.0 / 40, ArrivalStop: 300,
			WorkScale: 0.2,
			// Past the web-tide trace's last departure (t=2118), so the
			// replay cell sees the batch job complete.
			Horizon:  2400,
			Debounce: 5,
			// Sequential search keeps the cells deterministic for the
			// golden-adjacent assertions.
			Optimizer: core.Optimizer{Timeout: 100 * time.Millisecond, Workers: 1},
			Failures:  sim.FailureStorm{Base: 0.02},
			Seed:      7,
		},
		// The quick workloads are short: every chaos window opens while
		// they are still live, or the cells degenerate to the baseline.
		Racks: 8, Bursts: 2, BurstFrom: 100, BurstUntil: 600, Outage: 150,
		Flappers: 4, FlapFrom: 100, FlapUntil: 600, MeanDown: 20, MeanUp: 60,
		Loss:           sim.EventLoss{From: 60, Until: 600},
		StormRate:      0.25,
		StormFrom:      60,
		StormUntil:     400,
		ResyncInterval: 40,
		Trace:          "web-tide",
	}
}

// TestChaosStudyQuick is the -race chaos cell of the suite: every
// scenario class plus trace replay on the quick cluster, asserting
// zero structural breaches and no unrecovered violation at the
// horizon in every cell.
func TestChaosStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every chaos cell")
	}
	rows := ChaosStudy(quickChaosOptions())
	if len(rows) != len(ChaosScenarios()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(ChaosScenarios()))
	}
	for i, r := range rows {
		if r.Scenario != ChaosScenarios()[i] {
			t.Fatalf("cell %d = %s, want %s", i, r.Scenario, ChaosScenarios()[i])
		}
		if r.Breaches != 0 {
			t.Errorf("%s: %d structural breaches", r.Scenario, r.Breaches)
		}
		if r.FinalViolations != 0 {
			t.Errorf("%s: ended with %d capacity violations", r.Scenario, r.FinalViolations)
		}
		if r.Unrecovered != 0 {
			t.Errorf("%s: violation episode still open at the horizon", r.Scenario)
		}
		if r.Episodes > 0 && (r.RecoveryP50 <= 0 || r.RecoveryMax < r.RecoveryP95 || r.RecoveryP95 < r.RecoveryP50) {
			t.Errorf("%s: inconsistent quantiles p50=%v p95=%v max=%v", r.Scenario, r.RecoveryP50, r.RecoveryP95, r.RecoveryMax)
		}
		t.Logf("%s: %+v", r.Scenario, r)
	}
	// The chaos must actually bite: the loss cell must drop events and
	// the storm cell must fail more actions than the baseline repairs.
	byName := map[string]ChaosResult{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	if byName[ScenarioLoss].Dropped == 0 {
		t.Error("event-loss cell dropped nothing")
	}
	if base, storm := byName[ScenarioBaseline], byName[ScenarioStorm]; storm.Stats.Repairs+storm.Stats.FailedRepairs <= base.Stats.Repairs+base.Stats.FailedRepairs {
		t.Errorf("action-storm did not stress the repair path: %d vs baseline %d",
			storm.Stats.Repairs+storm.Stats.FailedRepairs, base.Stats.Repairs+base.Stats.FailedRepairs)
	}
	if byName[ScenarioReplay].Arrived == 0 || byName[ScenarioReplay].Completed == 0 {
		// The replay cell must place the trace's jobs and see its batch
		// job depart and terminate within the horizon.
		t.Errorf("trace replay placed/completed nothing: %+v", byName[ScenarioReplay])
	}
}

// TestChaosSeedStability pins the rng-stream contract: running a
// chaos cell must not perturb the seeded churn scenario itself, so a
// cell's workload (arrivals) matches the baseline's exactly.
func TestChaosSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two chaos cells")
	}
	opts := quickChaosOptions()
	base := RunChaos(ScenarioBaseline, opts)
	storm := RunChaos(ScenarioStorm, opts)
	if base.Arrived != storm.Arrived {
		t.Fatalf("chaos cell shifted the arrival stream: %d vs %d vjobs", storm.Arrived, base.Arrived)
	}
}

func TestChaosRendering(t *testing.T) {
	rows := []ChaosResult{
		{Scenario: ScenarioBaseline, Summary: testbed.Summary{Episodes: 3, RecoveryP50: 12, RecoveryP95: 40, RecoveryMax: 41, ViolationSeconds: 321, Arrived: 10, Completed: 10}},
		{Scenario: ScenarioLoss, Dropped: 17, Summary: testbed.Summary{Episodes: 5, RecoveryP50: 60, RecoveryP95: 180, RecoveryMax: 200, Unrecovered: 1, ViolationSeconds: 900, Arrived: 10, Completed: 9}},
	}
	table := ChaosTable(rows)
	for _, want := range []string{"baseline", "event-loss", "rec-p95", "breaches"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// TestGoldenChaosCSV pins the chaos CSV schema from synthetic rows,
// like the other study exports.
func TestGoldenChaosCSV(t *testing.T) {
	rows := []ChaosResult{
		{Scenario: ScenarioBaseline, Summary: testbed.Summary{Episodes: 3, RecoveryP50: 12, RecoveryP95: 40.5, RecoveryMax: 41, ViolationSeconds: 321.5, Switches: 14, Arrived: 10, Completed: 10, End: 1500}},
		{Scenario: ScenarioBursts, Summary: testbed.Summary{Episodes: 6, RecoveryP50: 25, RecoveryP95: 90, RecoveryMax: 120, ViolationSeconds: 1024, FinalViolations: 0, Switches: 22, Arrived: 10, Completed: 9, End: 1500,
			TopVJob: "vjob004", TopVJobSeconds: 512.5, TopNode: "node007", TopNodeSeconds: 600, RuleBreachSeconds: 90.5}},
		{Scenario: ScenarioLoss, Dropped: 17, Summary: testbed.Summary{Episodes: 5, RecoveryP50: 60, RecoveryP95: 180, RecoveryMax: 200, Unrecovered: 1, ViolationSeconds: 900, Switches: 18, Arrived: 10, Completed: 9, End: 1500,
			TopVJob: "vjob001", TopVJobSeconds: 450, TopNode: "node002", TopNodeSeconds: 500}},
		{Scenario: ScenarioReplay, Summary: testbed.Summary{Episodes: 1, RecoveryP50: 8, RecoveryP95: 8, RecoveryMax: 8, ViolationSeconds: 64, Switches: 9, Arrived: 3, Completed: 1, End: 1500}},
	}
	checkGolden(t, "chaos.csv.golden", ChaosCSV(rows))
}

func TestRackNamesAndSpread(t *testing.T) {
	name := testbed.New(testbed.Options{}).NodeName
	racks := rackNames(name, 10, 3)
	if len(racks) != 3 {
		t.Fatalf("racks = %v", racks)
	}
	total := 0
	for _, r := range racks {
		total += len(r)
	}
	if total != 10 {
		t.Fatalf("racks cover %d nodes, want 10", total)
	}
	if racks[0][0] != "node000" {
		t.Fatalf("first rack = %v", racks[0])
	}
	// Degenerate shapes clamp instead of exploding.
	if got := rackNames(name, 2, 5); len(got) != 2 {
		t.Fatalf("more racks than nodes: %v", got)
	}
	if got := rackNames(name, 4, 0); len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("zero racks: %v", got)
	}
	if got := spreadNodes(name, 10, 4); len(got) != 4 || got[0] != "node000" {
		t.Fatalf("spread = %v", got)
	}
	if got := spreadNodes(name, 3, 9); len(got) != 3 {
		t.Fatalf("spread beyond cluster = %v", got)
	}
	if got := spreadNodes(name, 3, 0); got != nil {
		t.Fatalf("spread of none = %v", got)
	}
}
