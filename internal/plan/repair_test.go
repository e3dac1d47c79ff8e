package plan

import (
	"errors"
	"testing"

	"cwcs/internal/vjob"
)

// repairCluster builds four 1-CPU nodes and two running VMs: a on n1,
// b on n3. Node memory fits exactly one VM.
func repairCluster(t *testing.T) (*vjob.Configuration, *vjob.VM, *vjob.VM) {
	t.Helper()
	cfg := vjob.NewConfiguration()
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		cfg.AddNode(vjob.NewNode(n, 1, 1024))
	}
	a := vjob.NewVM("a", "j1", 1, 1024)
	b := vjob.NewVM("b", "j2", 1, 1024)
	cfg.AddVM(a)
	cfg.AddVM(b)
	if err := cfg.SetRunning("a", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetRunning("b", "n3"); err != nil {
		t.Fatal(err)
	}
	return cfg, a, b
}

func set(keys ...string) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func TestRepairSplicesFreshSlice(t *testing.T) {
	cfg, a, b := repairCluster(t)
	// The remainder still wants a:n1->n2 and b:n3->n4; b's slice
	// (n3, n4) went dirty, so its migration is dropped and replaced by
	// the freshly solved slice plan.
	remaining := &Plan{Src: cfg, Pools: []Pool{
		{&Migration{Machine: a, Src: "n1", Dst: "n2"}},
		{&Migration{Machine: b, Src: "n3", Dst: "n4"}},
	}}
	fresh := &Plan{Pools: []Pool{
		{&Migration{Machine: b, Src: "n3", Dst: "n4"}},
	}}
	got, err := Repair(cfg, remaining, set("n3", "n4"), set("b"), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumActions() != 2 {
		t.Fatalf("repaired plan has %d actions:\n%s", got.NumActions(), got)
	}
	final, err := got.Result()
	if err != nil {
		t.Fatal(err)
	}
	if final.HostOf("a") != "n2" || final.HostOf("b") != "n4" {
		t.Fatalf("final placement a=%s b=%s", final.HostOf("a"), final.HostOf("b"))
	}
}

func TestRepairKeepsCleanRegionUntouched(t *testing.T) {
	cfg, a, _ := repairCluster(t)
	remaining := &Plan{Src: cfg, Pools: []Pool{
		{&Migration{Machine: a, Src: "n1", Dst: "n2"}},
	}}
	// No fresh plans: a pure filter of the remainder.
	got, err := Repair(cfg, remaining, set("n3", "n4"), set("b"))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumActions() != 1 {
		t.Fatalf("repaired plan has %d actions", got.NumActions())
	}
}

func TestRepairRefusesBrokenFeasibilityEdge(t *testing.T) {
	// c occupies n2; the remainder suspends c (freeing n2) and then
	// migrates a into n2. Marking only c dirty drops the suspend while
	// keeping the migration, which is no longer feasible — Repair must
	// refuse rather than emit a plan that overloads n2, reporting the
	// broken chain so the caller can widen its region over it.
	cfg, a, _ := repairCluster(t)
	c := vjob.NewVM("c", "j3", 0, 1024)
	cfg.AddVM(c)
	if err := cfg.SetRunning("c", "n2"); err != nil {
		t.Fatal(err)
	}
	remaining := &Plan{Src: cfg, Pools: []Pool{
		{&Suspend{Machine: c, On: "n2", To: "n2"}},
		{&Migration{Machine: a, Src: "n1", Dst: "n2"}},
	}}
	_, err := Repair(cfg, remaining, nil, set("c"))
	if err == nil {
		t.Fatal("repair accepted a splice that breaks a feasibility edge")
	}
	var broken *ErrBrokenDependency
	if !errors.As(err, &broken) {
		t.Fatalf("err = %v, want ErrBrokenDependency", err)
	}
	if want := []string{"n1", "n2"}; !equalStrings(broken.Nodes, want) {
		t.Fatalf("closure nodes = %v, want %v", broken.Nodes, want)
	}
	if want := []string{"a"}; !equalStrings(broken.VMs, want) {
		t.Fatalf("closure VMs = %v, want %v", broken.VMs, want)
	}
}

func equalStrings(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestRepairRefusesCrossSliceDependency pins the cross-slice repair
// contract: when a kept action outside the re-solved region depends on
// a dropped action — here the dropped migration was the one freeing
// the kept migration's destination — Repair must never emit the
// corrupt splice. It refuses with ErrBrokenDependency carrying the
// chain's closure, which is what lets core.Loop widen the repair
// region and splice without a monolithic re-solve.
func TestRepairRefusesCrossSliceDependency(t *testing.T) {
	cfg, _, _ := repairCluster(t)
	// y fills n4; z sits on n2. The monolithic remainder first moves y
	// into the region that later went dirty (freeing n4), then moves z
	// into the freed n4.
	y := vjob.NewVM("y", "j3", 0, 1024)
	z := vjob.NewVM("z", "j4", 0, 1024)
	cfg.AddVM(y)
	cfg.AddVM(z)
	if err := cfg.SetRunning("y", "n4"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetRunning("z", "n2"); err != nil {
		t.Fatal(err)
	}
	remaining := &Plan{Src: cfg, Pools: []Pool{
		{&Migration{Machine: y, Src: "n4", Dst: "n1"}},
		{&Migration{Machine: z, Src: "n2", Dst: "n4"}},
	}}
	// The dirty region is {n1, a}: y's migration touches n1 and is
	// dropped; z's migration (n2 -> n4) touches neither and is kept —
	// but its destination is only free if y actually left.
	_, err := Repair(cfg, remaining, set("n1"), set("a"))
	if err == nil {
		t.Fatal("repair accepted a splice whose kept remainder depends on a dropped action")
	}
	var broken *ErrBrokenDependency
	if !errors.As(err, &broken) {
		t.Fatalf("err = %v, want ErrBrokenDependency", err)
	}
	// The closure must name z's chain — the elements a widened region
	// has to absorb — and nothing from the healthy slice.
	if want := []string{"n2", "n4"}; !equalStrings(broken.Nodes, want) {
		t.Fatalf("closure nodes = %v, want %v", broken.Nodes, want)
	}
	if want := []string{"z"}; !equalStrings(broken.VMs, want) {
		t.Fatalf("closure VMs = %v, want %v", broken.VMs, want)
	}
}

// TestRepairChainClosureSpansMultipleActions checks the transitive
// closure: dropping the head of a three-hop chain (y frees n1 for z,
// z frees n2 for w... here y frees n4 for z, whose own source n2 then
// receives w) must pull every chained action into the closure, not
// just the first broken one.
func TestRepairChainClosureSpansMultipleActions(t *testing.T) {
	cfg, _, _ := repairCluster(t)
	y := vjob.NewVM("y", "j3", 0, 1024)
	z := vjob.NewVM("z", "j4", 0, 1024)
	w := vjob.NewVM("w", "j5", 0, 1024)
	cfg.AddVM(y)
	cfg.AddVM(z)
	cfg.AddVM(w)
	for vm, node := range map[string]string{"y": "n4", "z": "n2", "w": "n3"} {
		if err := cfg.SetRunning(vm, node); err != nil {
			t.Fatal(err)
		}
	}
	remaining := &Plan{Src: cfg, Pools: []Pool{
		{&Migration{Machine: y, Src: "n4", Dst: "n1"}},
		{&Migration{Machine: z, Src: "n2", Dst: "n4"}},
		{&Migration{Machine: w, Src: "n3", Dst: "n2"}},
	}}
	// Dropping y's migration (dirty n1) strands z directly and w
	// transitively: w's destination n2 is only free once z left it.
	_, err := Repair(cfg, remaining, set("n1"), nil)
	var broken *ErrBrokenDependency
	if !errors.As(err, &broken) {
		t.Fatalf("err = %v, want ErrBrokenDependency", err)
	}
	if want := []string{"n2", "n3", "n4"}; !equalStrings(broken.Nodes, want) {
		t.Fatalf("closure nodes = %v, want %v", broken.Nodes, want)
	}
	if want := []string{"w", "z"}; !equalStrings(broken.VMs, want) {
		t.Fatalf("closure VMs = %v, want %v", broken.VMs, want)
	}
}

// TestRepairRefusesInfeasibleFreshPlan pins the true-infeasibility
// path: a fresh plan broken on its own (its action does not fit the
// observed configuration) is not a dependency problem — no widening
// can absorb it — so Repair must refuse with a plain error, sending
// the caller to the full re-solve.
func TestRepairRefusesInfeasibleFreshPlan(t *testing.T) {
	cfg, _, b := repairCluster(t)
	d := vjob.NewVM("d", "j5", 0, 1024)
	cfg.AddVM(d)
	if err := cfg.SetRunning("d", "n4"); err != nil {
		t.Fatal(err)
	}
	// The fresh plan moves b onto n4, which d already fills.
	fresh := &Plan{Pools: []Pool{
		{&Migration{Machine: b, Src: "n3", Dst: "n4"}},
	}}
	_, err := Repair(cfg, nil, set("n3"), set("b"), fresh)
	if err == nil {
		t.Fatal("repair accepted an infeasible fresh plan")
	}
	var broken *ErrBrokenDependency
	if errors.As(err, &broken) {
		t.Fatalf("fresh-plan infeasibility misreported as a broken dependency: %v", err)
	}
}

func TestRepairRefusesOverlappingFresh(t *testing.T) {
	cfg, a, b := repairCluster(t)
	remaining := &Plan{Src: cfg, Pools: []Pool{
		{&Migration{Machine: a, Src: "n1", Dst: "n2"}},
	}}
	// The fresh plan claims n2, which the kept remainder also touches.
	fresh := &Plan{Pools: []Pool{
		{&Migration{Machine: b, Src: "n3", Dst: "n2"}},
	}}
	_, err := Repair(cfg, remaining, set("n3"), set("b"), fresh)
	if !errors.Is(err, ErrOverlappingPlans) {
		t.Fatalf("err = %v, want ErrOverlappingPlans", err)
	}
}

func TestRepairNilRemainder(t *testing.T) {
	cfg, _, b := repairCluster(t)
	fresh := &Plan{Pools: []Pool{
		{&Migration{Machine: b, Src: "n3", Dst: "n4"}},
	}}
	got, err := Repair(cfg, nil, set("n3", "n4"), set("b"), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumActions() != 1 {
		t.Fatalf("repaired plan has %d actions", got.NumActions())
	}
}

// TestRepairSplicesEvacuationOfOverloadedNode pins the dominant storm
// failure mode: a fresh slice plan drains an overloaded node over two
// pools, so a shrinking violation stays alive on it during pool 0.
// The splice must succeed — the overload pre-exists in cur and the
// fresh plan is the cure, not the cause.
func TestRepairSplicesEvacuationOfOverloadedNode(t *testing.T) {
	cfg := vjob.NewConfiguration()
	for _, n := range []string{"n1", "n2"} {
		cfg.AddNode(vjob.NewNode(n, 2, 8192))
	}
	vms := make([]*vjob.VM, 4)
	for i, name := range []string{"v0", "v1", "v2", "v3"} {
		v := vjob.NewVM(name, "j1", 1, 512)
		cfg.AddVM(v)
		vms[i] = v
		if err := cfg.SetRunning(name, "n1"); err != nil {
			t.Fatal(err)
		}
	}
	// n1 demand 4 > capacity 2: the overload is why the repair exists.
	fresh := &Plan{Src: cfg, Pools: []Pool{
		{&Migration{Machine: vms[0], Src: "n1", Dst: "n2"}},
		{&Migration{Machine: vms[1], Src: "n1", Dst: "n2"}},
	}}
	got, err := Repair(cfg, nil, set("n1", "n2"), set("v0", "v1"), fresh)
	if err != nil {
		t.Fatalf("evacuation of overloaded node refused: %v", err)
	}
	if got.NumActions() != 2 {
		t.Fatalf("repaired plan has %d actions, want 2", got.NumActions())
	}
}

func TestTouchedNodesExported(t *testing.T) {
	m := &Migration{Machine: vjob.NewVM("v", "", 1, 1), Src: "n1", Dst: "n2"}
	got := AppendTouchedNodes(nil, m)
	if len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("AppendTouchedNodes = %v", got)
	}
}
