package experiments

import (
	"fmt"
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
// configuration does not hold. A third run drains with no arrivals, the
// evacuation alone.
func TestRunDrainEvacuatesWithoutBreaches(t *testing.T) {
	for _, tc := range []struct{ paper, arrivals bool }{{false, true}, {true, true}, {false, false}} {
		o := quickDrainOptions()
		o.Churn.PaperNames = tc.paper
		if !tc.arrivals {
			o.Churn.ArrivalRate = 0
		}
		r := RunDrain(o)
		label := fmt.Sprintf("paper names %v, arrivals %v", tc.paper, tc.arrivals)
		if r.Drained != 3 {
			t.Fatalf("%s: drained %d nodes (want 3)", label, r.Drained)
		}
		if r.Evacuated != r.Drained || r.Offline != r.Drained {
			t.Fatalf("%s: evacuated %d and took offline %d of %d drained nodes",
				label, r.Evacuated, r.Offline, r.Drained)
		}
		if r.TimeToEmpty < 0 {
			t.Fatalf("%s: drained nodes never emptied", label)
		}
		if r.Breaches != 0 {
			t.Fatalf("%s: %d invariant breaches during the evacuation", label, r.Breaches)
		}
		if r.Stats.SubSolves == 0 {
			t.Fatalf("%s: no solver activity recorded", label)
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
