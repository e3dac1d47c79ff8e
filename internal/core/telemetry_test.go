package core

import (
	"testing"

	"cwcs/internal/vjob"
)

// TestSolverTelemetryAggregates: wins, warm-start tallies, search
// totals and cause counts fold per report; recent reports come back
// oldest first.
func TestSolverTelemetryAggregates(t *testing.T) {
	st := NewSolverTelemetry(8)
	st.RecordSolve(SolveReport{Virt: 1, Scope: "full", Cause: "vm-arrival", Winner: "base", Nodes: 10, Backtracks: 2, WarmStart: true, WarmHit: true})
	st.RecordSolve(SolveReport{Virt: 2, Scope: "slice", Cause: "vm-arrival", Winner: "firstfail", Nodes: 7, Backtracks: 1, WarmStart: true})
	st.RecordSolve(SolveReport{Virt: 3, Scope: "slice", Cause: "load-change", Winner: "base", Nodes: 3})

	snap := st.Snapshot()
	if snap.Solves != 3 {
		t.Fatalf("solves = %d", snap.Solves)
	}
	if snap.Wins["base"] != 2 || snap.Wins["firstfail"] != 1 {
		t.Fatalf("wins = %v", snap.Wins)
	}
	if snap.WarmStartHits != 1 || snap.WarmStartMisses != 1 {
		t.Fatalf("warm hits/misses = %d/%d, want 1/1", snap.WarmStartHits, snap.WarmStartMisses)
	}
	if snap.NodesExplored != 20 || snap.Backtracks != 3 {
		t.Fatalf("search totals = %d nodes / %d backtracks", snap.NodesExplored, snap.Backtracks)
	}
	if snap.ResolveCauses["vm-arrival"] != 2 || snap.ResolveCauses["load-change"] != 1 {
		t.Fatalf("causes = %v", snap.ResolveCauses)
	}
	if len(snap.Recent) != 3 || snap.Recent[0].Virt != 1 || snap.Recent[2].Virt != 3 {
		t.Fatalf("recent order = %+v", snap.Recent)
	}

	wr := snap.WinRates()
	if len(wr) != 2 || wr[0].Strategy != "base" || wr[0].Improvements != 2 || wr[1].Strategy != "firstfail" {
		t.Fatalf("win rates = %+v", wr)
	}
}

// TestSolverTelemetryRingWraps: the recent ring keeps only the last
// `keep` reports and Snapshot still returns them oldest first.
func TestSolverTelemetryRingWraps(t *testing.T) {
	st := NewSolverTelemetry(2)
	for i := 1; i <= 5; i++ {
		st.RecordSolve(SolveReport{Virt: float64(i)})
	}
	snap := st.Snapshot()
	if snap.Solves != 5 {
		t.Fatalf("solves = %d", snap.Solves)
	}
	if len(snap.Recent) != 2 || snap.Recent[0].Virt != 4 || snap.Recent[1].Virt != 5 {
		t.Fatalf("wrapped recent = %+v, want virt 4 then 5", snap.Recent)
	}
}

// TestLoopSolverTelemetryEndToEnd replays the dirty-slice scenario with
// telemetry attached: every solve reports a winner and its dirty
// cause, and slice re-solves are distinguishable from full ones.
func TestLoopSolverTelemetryEndToEnd(t *testing.T) {
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	st := NewSolverTelemetry(0)
	l.Solver = st
	l.Start(a)
	a.run(4)

	a.Schedule(5, func() {
		arrive(t, cfg, "a2", "ja", "n00")
		l.Notify(a, Event{Kind: VMArrival, At: a.Now(), Nodes: []string{"n00"}, VMs: []string{"a2"}})
	})
	a.run(40)

	if !cfg.Viable() {
		t.Fatalf("cluster still non-viable: %v", cfg.Violations())
	}
	snap := st.Snapshot()
	if snap.Solves == 0 {
		t.Fatal("no solves recorded")
	}
	if snap.Solves != l.Stats.SolverCalls {
		t.Fatalf("telemetry solves %d != loop SolverCalls %d", snap.Solves, l.Stats.SolverCalls)
	}
	if snap.ResolveCauses["vm-arrival"] == 0 {
		t.Fatalf("arrival cause not recorded: %v", snap.ResolveCauses)
	}
	totalWins := uint64(0)
	for _, w := range snap.Wins {
		totalWins += w
	}
	if totalWins != uint64(snap.Solves) {
		t.Fatalf("wins %v do not cover all %d solves", snap.Wins, snap.Solves)
	}
	sawSlice := false
	for _, r := range snap.Recent {
		if r.Scope != "full" && r.Scope != "slice" {
			t.Fatalf("scope = %q", r.Scope)
		}
		if r.Scope == "slice" {
			sawSlice = true
		}
		if r.Winner == "" {
			t.Fatalf("solve without winner: %+v", r)
		}
		if r.WallSeconds < 0 || r.Nodes < 0 {
			t.Fatalf("nonsense search cost: %+v", r)
		}
		if len(r.Workers) == 0 {
			t.Fatalf("solve without worker outcomes: %+v", r)
		}
	}
	if !sawSlice {
		t.Fatal("dirty-slice scenario recorded no slice-scoped solve")
	}
}

// TestLoopSolverDisabledIsByteIdentical mirrors the tracer test:
// running the identical scenario with and without telemetry must not
// change the loop's observable behaviour.
func TestLoopSolverDisabledIsByteIdentical(t *testing.T) {
	run := func(st *SolverTelemetry) (LoopStats, int) {
		cfg, rules, jobs := fencedChurnCluster(t)
		l, a := eventLoop(cfg, rules, jobs)
		l.Solver = st
		l.Start(a)
		a.run(4)
		a.Schedule(5, func() {
			arrive(t, cfg, "a2", "ja", "n00")
			l.Notify(a, Event{Kind: VMArrival, At: a.Now(), Nodes: []string{"n00"}, VMs: []string{"a2"}})
		})
		a.run(40)
		return l.Stats, len(l.Records)
	}
	offStats, offRecs := run(nil)
	onStats, onRecs := run(NewSolverTelemetry(16))
	if offStats.SliceSolves == 0 {
		t.Fatalf("no slice solve happened: %+v", offStats)
	}
	if offStats != onStats || offRecs != onRecs {
		t.Fatalf("telemetry changed loop behaviour:\n off %+v (%d switches)\n on  %+v (%d switches)",
			offStats, offRecs, onStats, onRecs)
	}
}

// TestOptimizerResultSearchFields: a direct solve labels its winner
// and worker outcomes even without the loop.
func TestOptimizerResultSearchFields(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 4, 8192))
	cfg.AddNode(vjob.NewNode("n1", 4, 8192))
	v := vjob.NewVM("v1", "j", 1, 1024)
	cfg.AddVM(v)
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	res, err := Optimizer{Workers: 1}.Solve(Problem{Src: cfg, Target: map[string]vjob.State{"j": vjob.Running}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner == "" {
		t.Fatal("result carries no winner")
	}
	if len(res.Outcomes) == 0 {
		t.Fatal("result carries no worker outcomes")
	}
	for _, w := range res.Outcomes {
		if w.Strategy == "" {
			t.Fatalf("outcome without strategy: %+v", w)
		}
	}
}
