package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// -update rewrites the golden files, for deliberate format changes:
//
//	go test ./cmd/planviz -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

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

// TestGoldenRepairedPlan pins the rendering of a spliced (repaired)
// plan: a failed migration's slice is re-solved and the fresh slice
// plan is merged with the untouched remainder. The exact pool layout
// and per-action cost lines must stay stable — planviz output is what
// operators diff when auditing a repair.
func TestGoldenRepairedPlan(t *testing.T) {
	cfg := vjob.NewConfiguration()
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		cfg.AddNode(vjob.NewNode(n, 1, 4096))
	}
	a := vjob.NewVM("vm-a", "ja", 1, 2048)
	b := vjob.NewVM("vm-b", "jb", 1, 1024)
	c := vjob.NewVM("vm-c", "jc", 1, 512)
	for _, v := range []*vjob.VM{a, b, c} {
		cfg.AddVM(v)
	}
	for vm, n := range map[string]string{"vm-a": "n1", "vm-b": "n3", "vm-c": "n3"} {
		if err := cfg.SetRunning(vm, n); err != nil {
			t.Fatal(err)
		}
	}

	// The executing plan still owed: migrate vm-a off n1 (clean
	// region) and pack vm-b onto n4 (dirty region: its first attempt
	// failed). The repair re-solves the {n3,n4} slice and splices the
	// fresh migration against the kept remainder.
	remaining := &plan.Plan{Src: cfg, Pools: []plan.Pool{
		{&plan.Migration{Machine: a, Src: "n1", Dst: "n2"}},
		{&plan.Migration{Machine: b, Src: "n3", Dst: "n4"}},
	}}
	fresh := &plan.Plan{Pools: []plan.Pool{
		{&plan.Migration{Machine: b, Src: "n3", Dst: "n4"}},
	}}
	dirtyNodes := map[string]bool{"n3": true, "n4": true}
	dirtyVMs := map[string]bool{"vm-b": true, "vm-c": true}
	repaired, err := plan.Repair(cfg, remaining, dirtyNodes, dirtyVMs, fresh)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "repaired_plan.golden", indent(repaired.String()))
}

// TestVectorSpec pins the multi-dimensional input path: extra
// dimensions parse into capacities and demands, drive the solve (two
// net-heavy VMs must separate), and bad extras are refused as the vjob
// wire format refuses them.
func TestVectorSpec(t *testing.T) {
	prob, err := load([]byte(`{
	  "nodes": [{"name":"n1","cpu":4,"memory":8192,"resources":{"net":100,"disk":50}},
	            {"name":"n2","cpu":4,"memory":8192,"resources":{"net":100}}],
	  "vms": [{"name":"v1","vjob":"j","cpu":1,"memory":512,"resources":{"net":60},"state":"running","node":"n1"},
	          {"name":"v2","vjob":"j","cpu":1,"memory":512,"resources":{"net":60},"state":"running","node":"n1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := resources.FromWire(4, 8192, map[string]int{"net": 100, "disk": 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := prob.Src.Node("n1").Capacity; got != want {
		t.Fatalf("n1 capacity = %s, want %s", got, want)
	}
	for _, bad := range []string{
		`{"nodes":[{"name":"n","cpu":1,"memory":1,"resources":{"tape":1}}]}`,
		`{"nodes":[{"name":"n","cpu":1,"memory":1,"resources":{"cpu":1}}]}`,
		`{"nodes":[{"name":"n","cpu":1,"memory":1,"resources":{"net":-1}}]}`,
		`{"vms":[{"name":"v","cpu":-1,"memory":1}]}`,
	} {
		if _, err := load([]byte(bad)); err == nil {
			t.Fatalf("accepted %s", bad)
		}
	}

	res, err := core.Optimizer{Workers: 1}.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	// One migration of a VM with a 60 Mbit/s net demand: cost
	// plan.TransferSize = 512 + 60.
	if res.Cost != 572 || res.Dst.HostOf("v1") == res.Dst.HostOf("v2") {
		t.Fatalf("net-aware solve: cost=%d hosts %s/%s", res.Cost, res.Dst.HostOf("v1"), res.Dst.HostOf("v2"))
	}
}
