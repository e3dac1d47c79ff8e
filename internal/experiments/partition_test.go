package experiments

import (
	"strings"
	"testing"
	"time"

	"cwcs/internal/core"
)

// TestPartitionStudySmall runs the study on tiny clusters so the test
// stays fast; both sides must produce plans and the effective partition
// count must exceed one on the partitioned side.
func TestPartitionStudySmall(t *testing.T) {
	rows := PartitionStudy(PartitionOptions{
		NodeCounts: []int{24},
		Optimizer:  core.Optimizer{Timeout: 2 * time.Second, Workers: 1, Partitions: 4},
		Seed:       1,
	})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.MonoCost <= 0 || r.PartCost <= 0 {
		t.Fatalf("a side produced no plan: %+v", r)
	}
	if r.Partitions < 2 {
		t.Fatalf("partitioned side ran monolithically: %+v", r)
	}
	table := PartitionTable(rows)
	if !strings.Contains(table, "speedup") || !strings.Contains(table, "24") {
		t.Fatalf("table = %q", table)
	}
}

func TestGoldenPartitionCSV(t *testing.T) {
	rows := []PartitionRow{
		{Nodes: 100, VMs: 150, Partitions: 2, MonoMS: 2000.4, MonoCost: 51200, MonoOptimal: false,
			PartMS: 450.2, PartCost: 52224, PartOptimal: true, Speedup: 4.44},
		{Nodes: 500, VMs: 750, Partitions: 8, MonoMS: 2100, MonoCost: 204800,
			PartMS: 600, PartCost: 215040, PartOptimal: true, Speedup: 3.5},
	}
	checkGolden(t, "partition.csv.golden", PartitionCSV(rows))
}
