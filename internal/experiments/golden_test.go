package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/monitor"
)

// -update regenerates the golden files instead of comparing, for when
// a CSV schema change is intentional:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite the CSV golden files")

// checkGolden compares got with testdata/<name> (or rewrites it under
// -update). The golden files pin the exact bytes of the figure-data
// exports: external plotting pipelines parse them, so drift must be a
// deliberate, reviewed change.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenFig3CSV(t *testing.T) {
	// Fig3 is fully deterministic: it measures the calibrated duration
	// model through the simulator.
	checkGolden(t, "fig3.csv.golden", Fig3CSV(Fig3(512, 1024, 2048)))
}

func TestGoldenFig10CSV(t *testing.T) {
	rows := []Fig10Row{
		{VMs: 54, Samples: 30, FFDMean: 10240, EntropyMean: 1024, ReductionPct: 90},
		{VMs: 108, Samples: 30, FFDMean: 20480, EntropyMean: 4096, ReductionPct: 80},
		{VMs: 162, Samples: 29, FFDMean: 30720, EntropyMean: 10240, ReductionPct: 66.7},
	}
	checkGolden(t, "fig10.csv.golden", Fig10CSV(rows))
}

func TestGoldenFig11CSV(t *testing.T) {
	var res ClusterResult
	res.Records = []core.SwitchRecord{
		{At: 30, Cost: 1024, Duration: 19.5, Actions: 3, Pools: 2},
		{At: 120, Cost: 6144, Duration: 74.2, Actions: 11, Pools: 3, Failures: 1},
	}
	checkGolden(t, "fig11.csv.golden", Fig11CSV(res))
}

func TestGoldenFig13CSV(t *testing.T) {
	fcfs := ClusterResult{Samples: []monitor.Sample{
		{T: 10, UsedCPU: 2, CapCPU: 22, UsedMem: 4096, CapMem: 39424, Running: 9, Waiting: 63},
		{T: 20, UsedCPU: 11, CapCPU: 22, UsedMem: 18432, CapMem: 39424, Running: 27, Waiting: 45},
	}}
	entropy := ClusterResult{Samples: []monitor.Sample{
		{T: 10, UsedCPU: 20, CapCPU: 22, UsedMem: 30720, CapMem: 39424, Running: 45, Sleeping: 9, Waiting: 18},
	}}
	got := Fig13CSV(fcfs, entropy)
	// The blocks must be ordered fcfs-then-entropy on every run (a map
	// iteration here used to shuffle them).
	if got != Fig13CSV(fcfs, entropy) {
		t.Fatal("Fig13CSV not deterministic")
	}
	checkGolden(t, "fig13.csv.golden", got)
}
