package experiments

import (
	"strings"
	"testing"
	"time"

	"cwcs/internal/testbed"
)

// quickDrainOptions is a scenario small enough for the test suite: 24
// nodes, drain 3, light churn.
func quickDrainOptions() DrainOptions {
	o := DefaultDrainOptions()
	o.Nodes = 24
	o.InitialVJobs = 4
	o.VMsPerVJob = 4
	o.ArrivalRate = 1.0 / 60
	o.ArrivalStop = 120
	o.DrainAt = 120
	o.WorkScale = 0.2
	o.Horizon = 1500
	o.Timeout = 100 * time.Millisecond
	o.Workers = 1
	o.DrainFraction = 0.125
	return o
}

func TestRunDrainEvacuatesWithoutBreaches(t *testing.T) {
	r := RunDrain(quickDrainOptions())
	if r.Drained != 3 {
		t.Fatalf("drained %d nodes (want 3)", r.Drained)
	}
	if r.Evacuated != r.Drained {
		t.Fatalf("evacuated %d of %d drained nodes", r.Evacuated, r.Drained)
	}
	if r.TimeToEmpty < 0 {
		t.Fatal("drained nodes never emptied")
	}
	if r.Breaches != 0 {
		t.Fatalf("%d invariant breaches during the evacuation", r.Breaches)
	}
	if r.Stats.SubSolves == 0 {
		t.Fatal("no solver activity recorded")
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
	opts.ArrivalRate = 0 // pure evacuation, no churn noise
	for i := 0; i < b.N; i++ {
		r := RunDrain(opts)
		if r.Evacuated != r.Drained {
			b.Fatalf("evacuated %d of %d", r.Evacuated, r.Drained)
		}
	}
}
