package experiments

import (
	"strings"
	"testing"
	"time"

	"cwcs/internal/core"
)

// quickMigrationOptions shrinks the full-size scenario of `experiments
// migration` so the study completes in about a second while keeping
// the phenomenon: the transfer-blind planner oversubscribes NICs, the
// aware one never does. Two racks instead of eight — a 48-node rack
// octant cannot host an 18-VM vjob, and the fenced cells must stay
// feasible.
func quickMigrationOptions() MigrationOptions {
	o := DefaultMigrationOptions()
	o.Nodes = 48
	o.Racks = 2
	o.Optimizer = core.Optimizer{Timeout: 250 * time.Millisecond, Workers: 1}
	return o
}

// TestMigrationStudy pins the study's headline on both variants: the
// blind planner's execution oversubscribes NICs for a measurable
// integral, the aware planner buys zero transfer violation-seconds
// with extra pools, and neither corrupts the configuration. At a 50 ms
// budget the open variant alone must still solve both sides, and the
// aware plan must still never oversubscribe a NIC.
func TestMigrationStudy(t *testing.T) {
	r := RunMigration(quickMigrationOptions())
	if len(r.Variants) != 2 || r.Variants[0].Name != "open" || r.Variants[1].Name != "fenced" {
		t.Fatalf("variants = %+v", r.Variants)
	}
	if r.PoorNodes == 0 || r.PoorNodes == r.Nodes {
		t.Fatalf("NIC mix degenerate: %d poor of %d", r.PoorNodes, r.Nodes)
	}
	for _, v := range r.Variants {
		if v.Blind.Err != "" || v.Aware.Err != "" {
			t.Fatalf("%s solve failed: blind=%q aware=%q", v.Name, v.Blind.Err, v.Aware.Err)
		}
		if v.Blind.Transfers == 0 {
			t.Fatalf("%s: no transfers planned; the study is vacuous", v.Name)
		}
		if v.Blind.TransferViolationSeconds <= 0 {
			t.Fatalf("%s: blind planner caused no NIC oversubscription (%.1f)", v.Name, v.Blind.TransferViolationSeconds)
		}
		if v.Aware.TransferViolationSeconds != 0 {
			t.Fatalf("%s: aware planner oversubscribed a NIC for %.1f s", v.Name, v.Aware.TransferViolationSeconds)
		}
		if v.Aware.ViolationSeconds >= v.Blind.ViolationSeconds {
			t.Fatalf("%s: no violation-seconds drop: blind %.1f, aware %.1f",
				v.Name, v.Blind.ViolationSeconds, v.Aware.ViolationSeconds)
		}
		// The price of the drop: the aware plan serializes
		// NIC-conflicting transfers into more pools.
		if v.Aware.Pools <= v.Blind.Pools {
			t.Fatalf("%s: aware plan did not serialize: %d pools vs blind %d", v.Name, v.Aware.Pools, v.Blind.Pools)
		}
		for _, s := range []MigrationSide{v.Blind, v.Aware} {
			if s.StructuralBreaches != 0 {
				t.Fatalf("%s/%s: %d structural breaches", v.Name, s.Model, s.StructuralBreaches)
			}
			if s.FailedActions != 0 {
				t.Fatalf("%s/%s: %d failed actions", v.Name, s.Model, s.FailedActions)
			}
		}
	}
	// The fence keeps vjobs rack-local: strictly fewer cross-rack
	// transfers, hence a cheaper 10x-weighted wire bill.
	open, fenced := r.Variants[0], r.Variants[1]
	if fenced.Aware.CrossRack >= open.Aware.CrossRack {
		t.Fatalf("fence did not reduce cross-rack transfers: %d vs %d", fenced.Aware.CrossRack, open.Aware.CrossRack)
	}
	if fenced.Aware.WireCost10x >= open.Aware.WireCost10x {
		t.Fatalf("fence did not reduce the 10x wire cost: %d vs %d", fenced.Aware.WireCost10x, open.Aware.WireCost10x)
	}

	short := quickMigrationOptions()
	short.FencedVariant = false
	short.Optimizer.Timeout = 50 * time.Millisecond
	v := RunMigration(short).Variants[0]
	if v.Blind.Err != "" || v.Aware.Err != "" {
		t.Fatalf("50 ms: solve failed: blind=%q aware=%q", v.Blind.Err, v.Aware.Err)
	}
	if v.Aware.TransferViolationSeconds != 0 {
		t.Fatalf("50 ms: aware planner oversubscribed a NIC for %.1f s", v.Aware.TransferViolationSeconds)
	}
}

// TestMigrationRenderings smokes the table/CSV shapes the CLI exports.
func TestMigrationRenderings(t *testing.T) {
	o := quickMigrationOptions()
	o.FencedVariant = false
	r := RunMigration(o)
	table := MigrationTable(r)
	for _, want := range []string{"blind", "aware", "viol_sec", "cross_rack"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	csv := MigrationCSV(r)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV should be header + 2 rows without the fenced variant:\n%s", csv)
	}
	for _, line := range lines[1:] {
		if nf, nh := len(strings.Split(line, ",")), len(strings.Split(lines[0], ",")); nf != nh {
			t.Fatalf("csv row has %d fields, header %d: %s", nf, nh, line)
		}
	}
}

// TestGoldenMigrationCSV pins the exact export bytes on a synthetic
// result (real runs carry wall-clock solve times), including the
// failed-cell row shape.
func TestGoldenMigrationCSV(t *testing.T) {
	r := MigrationResult{
		Nodes: 48, PoorNodes: 12, VMs: 72, Racks: 2,
		Variants: []MigrationVariant{
			{
				Name: "open",
				Blind: MigrationSide{Model: "blind", SolveMS: 251.0, Cost: 5376, Pools: 1, Actions: 20,
					Transfers: 15, CrossRack: 15, WireCost10x: 53760, MakespanS: 128.2,
					ViolationSeconds: 344.9, TransferViolationSeconds: 344.9},
				Aware: MigrationSide{Model: "aware", SolveMS: 249.5, Cost: 14080, Pools: 3, Actions: 20,
					Transfers: 15, CrossRack: 15, WireCost10x: 53760, MakespanS: 138.0},
			},
			{
				Name:  "fenced",
				Blind: MigrationSide{Model: "blind", SolveMS: 250.2, Err: "timeout before first solution"},
				Aware: MigrationSide{Model: "aware", SolveMS: 248.8, Cost: 15104, Pools: 3, Actions: 20,
					Transfers: 15, CrossRack: 0, WireCost10x: 5376, MakespanS: 158.3},
			},
		},
	}
	checkGolden(t, "migration.csv.golden", MigrationCSV(r))
}
