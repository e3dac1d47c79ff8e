package core

import (
	"testing"

	"cwcs/internal/vjob"
)

// TestDrainedRuleEvacuatesNode: installing a Drained rule over a
// hosting node makes the optimizer move every guest elsewhere while
// keeping them running.
func TestDrainedRuleEvacuatesNode(t *testing.T) {
	c := mkCluster(3, 2, 4096)
	j := vjob.NewVJob("j", 0,
		vjob.NewVM("j-1", "j", 1, 1024),
		vjob.NewVM("j-2", "j", 1, 1024))
	for _, v := range j.VMs {
		c.AddVM(v)
	}
	mustRun(t, c, "j-1", "n00")
	mustRun(t, c, "j-2", "n00")
	res, err := Optimizer{Workers: 1}.Solve(Problem{
		Src:   c,
		Rules: []PlacementRule{Drained{Nodes: []string{"n00"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Dst.RunningOn("n00")); n != 0 {
		t.Fatalf("%d VMs still on the drained node", n)
	}
	for _, vm := range []string{"j-1", "j-2"} {
		if res.Dst.StateOf(vm) != vjob.Running {
			t.Fatalf("%s is %v after the evacuation", vm, res.Dst.StateOf(vm))
		}
	}
	if res.Plan.NumActions() == 0 {
		t.Fatal("evacuation with no actions")
	}
}

// TestDrainedRuleSkipsOfflineNode: a rule naming a node absent from
// the configuration (taken offline after evacuation) must not fail the
// solve — the node is not a candidate host anyway.
func TestDrainedRuleSkipsOfflineNode(t *testing.T) {
	c := mkCluster(2, 2, 4096)
	c.AddVM(vjob.NewVM("v1", "j", 1, 1024))
	mustRun(t, c, "v1", "n00")
	_, err := Optimizer{Workers: 1}.Solve(Problem{
		Src:   c,
		Rules: []PlacementRule{Drained{Nodes: []string{"ghost"}}},
	})
	if err != nil {
		t.Fatalf("offline drained node failed the solve: %v", err)
	}
}

func TestDrainedCheckDetectsViolation(t *testing.T) {
	c := mkCluster(2, 2, 4096)
	c.AddVM(vjob.NewVM("v1", "j", 1, 1024))
	mustRun(t, c, "v1", "n00")
	r := Drained{Nodes: []string{"n00"}}
	if err := r.Check(c); err == nil {
		t.Fatal("running VM on drained node not detected")
	}
	if err := (Drained{Nodes: []string{"n01"}}).Check(c); err != nil {
		t.Fatalf("empty drained node flagged: %v", err)
	}
}

// TestDrainedRescope: partition handling — the rule follows its nodes
// and disappears from partitions that hold none of them.
func TestDrainedRescope(t *testing.T) {
	r := Drained{Nodes: []string{"n00", "n02"}}
	if got := r.Rescope(nil, map[string]bool{"n01": true}); got != nil {
		t.Fatalf("rescope kept a rule with no nodes: %v", got)
	}
	kept := r.Rescope(nil, map[string]bool{"n02": true, "n03": true})
	if kept == nil {
		t.Fatal("rescope dropped a live rule")
	}
	if d := kept.(Drained); len(d.Nodes) != 1 || d.Nodes[0] != "n02" {
		t.Fatalf("rescope: %v", d.Nodes)
	}
	if got := r.BindNodes(); len(got) != 2 {
		t.Fatalf("bind nodes: %v", got)
	}
	if got := r.ScopeVMs(); got != nil {
		t.Fatalf("scope VMs: %v", got)
	}
}

func TestDrainSetBridge(t *testing.T) {
	var nilSet *DrainSet
	if nilSet.IsDrained("x") || nilSet.Nodes() != nil {
		t.Fatal("nil DrainSet misbehaves")
	}
	d := &DrainSet{}
	if !d.Drain("n01") || d.Drain("n01") {
		t.Fatal("drain idempotence broken")
	}
	d.Drain("n00")
	if got := d.Nodes(); len(got) != 2 || got[0] != "n00" || got[1] != "n01" {
		t.Fatalf("nodes: %v", got)
	}
	rules := d.Rules()
	if len(rules) != 2 {
		t.Fatalf("%d rules", len(rules))
	}
	for i, want := range []string{"n00", "n01"} {
		if dr := rules[i].(Drained); len(dr.Nodes) != 1 || dr.Nodes[0] != want {
			t.Fatalf("rule %d: %v", i, dr.Nodes)
		}
	}
	if !d.Undrain("n00") || d.Undrain("n00") {
		t.Fatal("undrain idempotence broken")
	}
	if d.IsDrained("n00") || !d.IsDrained("n01") {
		t.Fatal("membership wrong after undrain")
	}
}

// TestLoopDrainBridgeEvacuates: the loop-level drain workflow — mark
// the node in the DrainSet, notify NodeDown, and the next wake-up
// evacuates it through the dynamic rule.
func TestLoopDrainBridgeEvacuates(t *testing.T) {
	cfg := mkCluster(4, 2, 4096)
	j := vjob.NewVJob("ja", 0,
		vjob.NewVM("a1", "ja", 1, 1024),
		vjob.NewVM("a2", "ja", 1, 1024))
	for _, v := range j.VMs {
		cfg.AddVM(v)
	}
	mustRun(t, cfg, "a1", "n00")
	mustRun(t, cfg, "a2", "n01")
	l, a := eventLoop(cfg, nil, []*vjob.VJob{j})
	l.Optimizer.Partitions = 1
	l.Drains = &DrainSet{}
	l.Start(a)
	a.run(1)

	l.Drains.Drain("n00")
	l.Notify(a, Event{Kind: NodeDown, At: a.now, Nodes: []string{"n00"}, VMs: []string{"a1"}})
	a.run(50)

	if n := len(cfg.RunningOn("n00")); n != 0 {
		t.Fatalf("%d VMs still on the drained node", n)
	}
	if cfg.StateOf("a1") != vjob.Running {
		t.Fatalf("a1 is %v", cfg.StateOf("a1"))
	}
	if !cfg.Viable() {
		t.Fatalf("non-viable after evacuation: %v", cfg.Violations())
	}

	// Undrain: new work may land on n00 again.
	l.Drains.Undrain("n00")
	l.Notify(a, Event{Kind: NodeUp, At: a.now, Nodes: []string{"n00"}})
	a.run(100)
	if err := (Drained{Nodes: []string{"n00"}}).Check(cfg); err != nil {
		// Nothing forces a VM back, but the rule must be gone from the
		// loop's view.
		t.Fatalf("unexpected: %v", err)
	}
	if got := len(l.rules()); got != 0 {
		t.Fatalf("%d rules still installed after undrain", got)
	}
}

// TestLoopDrainWithoutEventEvacuates: a drain order that reaches the
// loop with no NodeDown event (the control plane always sends one, but
// the rule must not depend on it) still empties the node at the next
// wake, which carves afresh and sees the Drained rule: b1 and b2 leave
// n02 for n03 (b2 is idle, so both fit).
func TestLoopDrainWithoutEventEvacuates(t *testing.T) {
	cfg, rules, jobs := idlePairsCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	l.Drains = &DrainSet{}
	l.Start(a)
	a.run(1)

	cfg.VM("a2").SetCPUDemand(1)
	l.Notify(a, Event{Kind: LoadChange, At: a.now, VMs: []string{"a2"}})
	a.run(20)

	l.Drains.Drain("n02")
	l.Notify(a, Event{Kind: LoadChange, At: a.now, VMs: []string{"b2"}})
	a.run(60)
	if n := len(cfg.RunningOn("n02")); n != 0 {
		t.Fatalf("%d VMs still on the drained node", n)
	}
	if !cfg.Viable() {
		t.Fatalf("non-viable: %v", cfg.Violations())
	}
}
