package experiments

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"cwcs/internal/trace"
)

// webTideRecords is the generator behind traces/web-tide.jsonl: a
// service tide. Twelve web VMs arrive staggered and double their CPU
// demand during a load wave (t=600..1500ish), six cache VMs run flat
// for the whole trace, and a ten-VM batch job passes through. The
// trace is committed as a golden file (run with -update after
// changing this) so the replay cell's input is reviewable bytes, not
// code.
func webTideRecords() []trace.Record {
	var recs []trace.Record
	for i := 0; i < 12; i++ {
		vm := fmt.Sprintf("web-%02d", i)
		recs = append(recs,
			trace.Record{At: float64(5 * i), Event: trace.EventArrive, VM: vm, VJob: "web", Demand: map[string]int{"cpu": 1, "memory": 768}},
			trace.Record{At: 600 + float64(5*i), Event: trace.EventLoad, VM: vm, Demand: map[string]int{"cpu": 2, "memory": 768}},
			trace.Record{At: 1500 + float64(5*i), Event: trace.EventLoad, VM: vm, Demand: map[string]int{"cpu": 1, "memory": 768}},
		)
	}
	for i := 0; i < 6; i++ {
		vm := fmt.Sprintf("cache-%02d", i)
		recs = append(recs, trace.Record{At: 120 + float64(10*i), Event: trace.EventArrive, VM: vm, VJob: "cache", Demand: map[string]int{"cpu": 1, "memory": 2048}})
	}
	for i := 0; i < 10; i++ {
		vm := fmt.Sprintf("batch-%02d", i)
		recs = append(recs,
			trace.Record{At: 300 + float64(2*i), Event: trace.EventArrive, VM: vm, VJob: "batch", Demand: map[string]int{"cpu": 1, "memory": 1024}},
			trace.Record{At: 2100 + float64(2*i), Event: trace.EventDepart, VM: vm},
		)
	}
	trace.SortRecords(recs)
	return recs
}

// checkTraceFile compares got with the committed trace file at path
// (or rewrites it under -update), reading from disk so a regeneration
// is visible without recompiling the embedded copy.
func checkTraceFile(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing sample trace (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its generator (run with -update if intentional)", path)
	}
}

// TestWebTideTrace pins traces/web-tide.jsonl to its generator.
func TestWebTideTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, webTideRecords()); err != nil {
		t.Fatal(err)
	}
	checkTraceFile(t, "traces/web-tide.jsonl", buf.Bytes())
}

// TestSampleTraces checks the embedded registry: both committed
// traces list, decode, and are non-trivial; unknown names fail.
func TestSampleTraces(t *testing.T) {
	names := SampleTraces()
	if len(names) != 2 || names[0] != "batch-ramp" || names[1] != "web-tide" {
		t.Fatalf("sample traces = %v", names)
	}
	for _, name := range names {
		recs, err := SampleTrace(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) < 10 {
			t.Fatalf("%s: only %d records", name, len(recs))
		}
	}
	if _, err := SampleTrace("no-such-trace"); err == nil {
		t.Fatal("unknown trace name accepted")
	}
}
