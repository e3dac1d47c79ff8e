package experiments

import (
	"strings"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/testbed"
)

// quickDrainOptions is a scenario small enough for the test suite: 24
// nodes, drain 3, light churn.
func quickDrainOptions() DrainOptions {
	o := DefaultDrainOptions()
	o.Churn.Nodes = 24
	o.Churn.VJobs = 4
	o.Churn.VMsPerVJob = 4
	o.Churn.ArrivalRate = 1.0 / 60
	o.Churn.ArrivalStop = 120
	o.DrainAt = 120
	o.Churn.WorkScale = 0.2
	o.Churn.Horizon = 1500
	o.Churn.Optimizer = core.Optimizer{Timeout: 100 * time.Millisecond, Workers: 1}
	o.DrainFraction = 0.125
	return o
}

// TestRunDrainEvacuatesWithoutBreaches runs the quick drain in both
// numberings: the orders name nodes through the testbed, so a scenario
// numbered as the paper's testbed (node07) drains nodes that exist —
// each emptied and taken offline — not node007-style names the
// configuration does not hold.
func TestRunDrainEvacuatesWithoutBreaches(t *testing.T) {
	for _, paper := range []bool{false, true} {
		o := quickDrainOptions()
		o.Churn.PaperNames = paper
		r := RunDrain(o)
		if r.Drained != 3 {
			t.Fatalf("paper names %v: drained %d nodes (want 3)", paper, r.Drained)
		}
		if r.Evacuated != r.Drained || r.Offline != r.Drained {
			t.Fatalf("paper names %v: evacuated %d and took offline %d of %d drained nodes",
				paper, r.Evacuated, r.Offline, r.Drained)
		}
		if r.TimeToEmpty < 0 {
			t.Fatalf("paper names %v: drained nodes never emptied", paper)
		}
		if r.Breaches != 0 {
			t.Fatalf("paper names %v: %d invariant breaches during the evacuation", paper, r.Breaches)
		}
		if r.Stats.SubSolves == 0 {
			t.Fatalf("paper names %v: no solver activity recorded", paper)
		}
	}
}

func TestDrainTableAndCSV(t *testing.T) {
	r := DrainResult{
		Nodes: 24, Drained: 3, Evacuated: 3, Offline: 2,
		TimeToEmpty: 42,
		Summary:     testbed.Summary{ViolationSeconds: 7, Switches: 5, Arrived: 6, Completed: 4, End: 1500},
	}
	r.Stats.SubSolves = 9
	table := DrainTable(r)
	for _, want := range []string{"evacuate 3 of 24 nodes", "42 s", "invariant breaches", "9 sub-solves"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	never := r
	never.TimeToEmpty = -1
	if !strings.Contains(DrainTable(never), "never") {
		t.Fatal("unfinished evacuation not rendered as never")
	}
	csv := DrainCSV(r)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines: %d", len(lines))
	}
	if nf, nh := len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")); nf != nh {
		t.Fatalf("csv row has %d fields, header %d", nf, nh)
	}
}

// BenchmarkDrainEvacuation is the regression-gated evacuation loop: a
// small cluster drains 3 nodes to empty under the event-driven loop.
func BenchmarkDrainEvacuation(b *testing.B) {
	opts := quickDrainOptions()
	opts.Churn.ArrivalRate = 0 // pure evacuation, no churn noise
	for i := 0; i < b.N; i++ {
		r := RunDrain(opts)
		if r.Evacuated != r.Drained {
			b.Fatalf("evacuated %d of %d", r.Evacuated, r.Drained)
		}
	}
}
