package main

import (
	"io"
	"testing"
)

// smokeRun sets a workload up at test scale and runs a plain and a
// traced round. It returns the plain round's exact results and the
// traced run's exact per-layer metrics.
func smokeRun(t *testing.T, name string, seed int64) (counts, layers map[string]float64) {
	t.Helper()
	w, err := newScenario(name, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(seed); err != nil {
		t.Fatal(err)
	}
	plain, err := w.round(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := w.round(0, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []round{plain, traced} {
		if r.failed > 0 || len(r.ops) == 0 {
			t.Fatalf("seed %d: %d of %d operations failed: %v", seed, r.failed, len(r.ops), r.why)
		}
	}
	if why := sameCounts(plain.counts, traced.counts); why != "" {
		t.Errorf("seed %d: the traced round does not repeat the plain one: %s", seed, why)
	}
	all := map[string]float64{}
	if err := w.layers(tr, traced, all); err != nil {
		t.Fatal(err)
	}
	layers = map[string]float64{}
	for _, name := range exactLayer {
		layers[name] = all[name]
	}
	return plain.counts, layers
}

// Every exact result of every workload repeats when the workload runs
// again in the same process with the same seed, and moves with the
// seed.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			counts1, layers1 := smokeRun(t, name, 1)
			counts2, layers2 := smokeRun(t, name, 1)
			if why := sameCounts(counts1, counts2); why != "" {
				t.Errorf("second run with seed 1: %s", why)
			}
			if why := sameCounts(layers1, layers2); why != "" {
				t.Errorf("second run with seed 1, per-layer: %s", why)
			}
			other, _ := smokeRun(t, name, 2)
			if sameCounts(counts1, other) == "" {
				t.Errorf("seed 2 gives exactly seed 1's results %v: the seed does not reach the inputs", counts1)
			}
		})
	}
}

// A run prints every metric of its table, by name, and nothing else.
func TestRunReportsEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res, err := run(config{workload: "plan_large", seed: 3, smoke: true, trace: trace}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d, %d metrics for %d definitions", trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace=%v: metric %s: got %+v, want unit %s", trace, d.name, m, d.unit)
			}
		}
		if !trace {
			for _, d := range defs {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.name, res.Metrics[d.name].Value)
				}
			}
		}
	}
}
