package experiments

import (
	"strings"
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/monitor"
)

func TestFig10CSV(t *testing.T) {
	rows := []Fig10Row{{VMs: 54, Samples: 3, FFDMean: 1000, EntropyMean: 100, ReductionPct: 90}}
	csv := Fig10CSV(rows)
	if !strings.HasPrefix(csv, "vms,") {
		t.Fatal("missing header")
	}
	if !strings.Contains(csv, "54,3,1000,100,90.0\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestFig3CSV(t *testing.T) {
	csv := Fig3CSV(Fig3(512))
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "512,6.0,25.0,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestFig11CSV(t *testing.T) {
	var res ClusterResult
	res.Records = []core.SwitchRecord{{At: 30, Cost: 1024, Duration: 19.5, Actions: 3, Pools: 2}}
	csv := Fig11CSV(res)
	if !strings.Contains(csv, "30,1024,19.5,3,2,0\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestFig13CSV(t *testing.T) {
	fcfs := ClusterResult{Samples: []monitor.Sample{{T: 10, UsedCPU: 2, CapCPU: 4}}}
	ent := ClusterResult{Samples: []monitor.Sample{{T: 10, UsedCPU: 4, CapCPU: 4}}}
	csv := Fig13CSV(fcfs, ent)
	if !strings.Contains(csv, "fcfs,10,2,4,50.0") || !strings.Contains(csv, "entropy,10,4,4,100.0") {
		t.Fatalf("csv = %q", csv)
	}
}
