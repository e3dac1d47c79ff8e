package monitor

import (
	"fmt"
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/cp"
	"cwcs/internal/duration"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// TestLedgerDominantConsumerAttribution: a violated (node, dimension)
// interval charges the vjob of the running VM with the largest demand
// on that dimension, and every aggregation reconciles with the total.
func TestLedgerDominantConsumerAttribution(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 2, 4096))
	c := sim.New(cfg, duration.Default())
	led := WatchLedger(c, nil)
	c.Schedule(0, func() {
		// big (3 cpu of 2) dominates small (1 cpu): the whole cpu
		// violation charges jbig, nothing charges jsmall.
		cfg.AddVM(vjob.NewVM("big", "jbig", 3, 1024))
		cfg.AddVM(vjob.NewVM("small", "jsmall", 1, 1024))
		for _, name := range []string{"big", "small"} {
			if err := cfg.SetRunning(name, "n0"); err != nil {
				t.Fatal(err)
			}
		}
	})
	c.Schedule(10, func() {})
	c.Run(20)

	atoms := led.Atoms()
	if len(atoms) != 1 {
		t.Fatalf("atoms = %+v, want exactly one", atoms)
	}
	a := atoms[0]
	if a.VJob != "jbig" || a.Node != "n0" || a.Kind != "cpu" {
		t.Fatalf("atom = %+v, want jbig/n0/cpu", a)
	}
	if a.Seconds < 10 {
		t.Fatalf("charged %.1fs, want >= 10", a.Seconds)
	}
	if got := led.Total(); got != a.Seconds {
		t.Fatalf("Total %.6f != atom %.6f", got, a.Seconds)
	}
	top := led.TopVJobs(0)
	if len(top) != 1 || top[0].VJob != "jbig" || top[0].Seconds != a.Seconds {
		t.Fatalf("TopVJobs = %+v", top)
	}
	if top[0].Kinds["cpu"] != a.Seconds {
		t.Fatalf("kind breakdown = %v", top[0].Kinds)
	}
	nodes := led.TopNodes(1)
	if len(nodes) != 1 || nodes[0].Node != "n0" || nodes[0].Seconds != a.Seconds {
		t.Fatalf("TopNodes = %+v", nodes)
	}
	if led.TransferSeconds() != 0 || led.RuleBreachSeconds() != 0 {
		t.Fatal("capacity-only run charged transfer or rule rows")
	}
}

// TestLedgerConservesAcrossViews: the per-vjob fold reproduces Total
// bitwise (the documented construction), and the per-node,
// per-dimension view carries the same mass.
func TestLedgerConservesAcrossViews(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 1, 512))
	cfg.AddNode(vjob.NewNode("n1", 1, 512))
	c := sim.New(cfg, duration.Default())
	led := WatchLedger(c, nil)
	c.Schedule(0, func() {
		// Distinct dominant vjobs per node and a memory violation on n1
		// so atoms span vjobs, nodes and dimensions.
		cfg.AddVM(vjob.NewVM("a", "ja", 2, 128))
		cfg.AddVM(vjob.NewVM("b", "jb", 2, 600))
		if err := cfg.SetRunning("a", "n0"); err != nil {
			t.Fatal(err)
		}
		if err := cfg.SetRunning("b", "n1"); err != nil {
			t.Fatal(err)
		}
	})
	c.Schedule(7, func() {})
	c.Run(20)

	total := led.Total()
	if total <= 0 {
		t.Fatal("no exposure charged")
	}
	sum := 0.0
	for _, e := range led.VJobTotals() {
		sum += e.Seconds
	}
	if sum != total {
		t.Fatalf("sum(VJobTotals) = %v != Total = %v (must be bitwise equal)", sum, total)
	}
	byNode := 0.0
	for _, e := range led.NodeKinds() {
		byNode += e.Seconds
	}
	if diff := byNode - total; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("node view mass %v drifted from total %v", byNode, total)
	}
	// Atoms on both nodes and at least two dimensions were charged.
	seenNodes := map[string]bool{}
	seenKinds := map[string]bool{}
	for _, a := range led.Atoms() {
		seenNodes[a.Node] = true
		seenKinds[a.Kind] = true
	}
	if !seenNodes["n0"] || !seenNodes["n1"] || len(seenKinds) < 2 {
		t.Fatalf("atoms lack spread: nodes=%v kinds=%v", seenNodes, seenKinds)
	}
}

// TestDominantConsumerTieBreak: equal demands resolve to the smaller
// VM name; a VM without a vjob is attributed under its own name.
func TestDominantConsumerTieBreak(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 1, 4096))
	cfg.AddVM(vjob.NewVM("b", "jb", 2, 256))
	cfg.AddVM(vjob.NewVM("a", "ja", 2, 256))
	for _, name := range []string{"a", "b"} {
		if err := cfg.SetRunning(name, "n0"); err != nil {
			t.Fatal(err)
		}
	}
	if dom := dominantConsumer(cfg.RunningOn("n0"), "cpu"); dom != "ja" {
		t.Fatalf("tie-break = %v, want ja (smaller VM name)", dom)
	}

	cfg2 := vjob.NewConfiguration()
	cfg2.AddNode(vjob.NewNode("n0", 1, 4096))
	cfg2.AddVM(vjob.NewVM("solo", "", 2, 256))
	if err := cfg2.SetRunning("solo", "n0"); err != nil {
		t.Fatal(err)
	}
	if dom := dominantConsumer(cfg2.RunningOn("n0"), "cpu"); dom != "solo" {
		t.Fatalf("vjob-less VM attribution = %v, want its own name", dom)
	}

	if dom := dominantConsumer(nil, "cpu"); dom != "" {
		t.Fatalf("no running VM must resolve to no consumer, got %q", dom)
	}
}

// TestLedgerTransferAttribution: NIC oversubscription born from
// migration streams lands on the (transfers) pseudo-vjob, keyed to the
// oversubscribed node's net dimension.
func TestLedgerTransferAttribution(t *testing.T) {
	cfg := vjob.NewConfiguration()
	for i := 0; i < 3; i++ {
		cap := resources.New(8, 16384)
		cap.Set(resources.NetBW, 1000)
		cfg.AddNode(vjob.NewNodeRes(fmt.Sprintf("n%02d", i), cap))
	}
	c := sim.New(cfg, duration.Default())
	v1 := vjob.NewVM("v1", "j", 1, 1024)
	v2 := vjob.NewVM("v2", "j", 1, 1024)
	cfg.AddVM(v1)
	cfg.AddVM(v2)
	if err := cfg.SetRunning("v1", "n00"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetRunning("v2", "n01"); err != nil {
		t.Fatal(err)
	}
	led := WatchLedger(c, nil)
	c.Schedule(1, func() {
		// Two 800 Mbit/s streams into one 1 Gb NIC: n02 oversubscribes
		// for the whole overlap.
		c.StartAction(&plan.Migration{Machine: v1, Src: "n00", Dst: "n02"}, nil)
		c.StartAction(&plan.Migration{Machine: v2, Src: "n01", Dst: "n02"}, nil)
	})
	c.Run(1000)

	if led.TransferSeconds() <= 0 {
		t.Fatal("transfer oversubscription charged nothing")
	}
	for _, e := range led.Atoms() {
		if e.VJob != TransferVJob {
			t.Fatalf("unexpected non-transfer atom %+v", e)
		}
		if e.Node != "n02" || e.Kind != "net" {
			t.Fatalf("transfer atom = %+v, want n02/net", e)
		}
	}
	if led.TransferSeconds() != led.Total() {
		t.Fatalf("transfer %.3f != total %.3f on a transfer-only run",
			led.TransferSeconds(), led.Total())
	}
	top := led.TopVJobs(1)
	if len(top) != 1 || top[0].VJob != TransferVJob {
		t.Fatalf("TopVJobs = %+v, want the pseudo-vjob ranked", top)
	}
}

// TestLedgerRuleBreachIntegration: breached placement rules integrate
// per rule kind on the same clock, without polluting the capacity
// atoms.
func TestLedgerRuleBreachIntegration(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 4, 4096))
	c := sim.New(cfg, duration.Default())
	rules := []core.PlacementRule{core.Drained{Nodes: []string{"n0"}}}
	led := WatchLedger(c, func() []core.PlacementRule { return rules })
	c.Schedule(0, func() {
		cfg.AddVM(vjob.NewVM("v1", "j", 1, 256))
		if err := cfg.SetRunning("v1", "n0"); err != nil {
			t.Fatal(err)
		}
	})
	c.Schedule(10, func() {})
	c.Run(20)

	rs := led.RuleSeconds()
	if len(rs) != 1 || rs[0].Rule != "drained" {
		t.Fatalf("RuleSeconds = %+v, want one drained row", rs)
	}
	if rs[0].Seconds < 10 {
		t.Fatalf("breach charged %.1fs, want >= 10", rs[0].Seconds)
	}
	if led.RuleBreachSeconds() != rs[0].Seconds {
		t.Fatal("RuleBreachSeconds disagrees with its only row")
	}
	if led.Total() != 0 {
		t.Fatalf("rule breach leaked into capacity atoms: %.1f", led.Total())
	}
}

// otherRule is a host-defined placement rule the kind switch cannot
// name.
type otherRule struct{}

func (otherRule) Apply(*cp.Solver, map[string]*cp.IntVar, map[string]int) error { return nil }
func (otherRule) Check(*vjob.Configuration) error                               { return nil }
func (otherRule) ScopeVMs() []string                                            { return nil }
func (otherRule) BindNodes() []string                                           { return nil }
func (otherRule) Rescope(map[string]bool, map[string]bool) core.PlacementRule   { return nil }

// TestRuleKind names every built-in rule shape, by value and pointer.
func TestRuleKind(t *testing.T) {
	cases := []struct {
		r    core.PlacementRule
		want string
	}{
		{core.Spread{}, "spread"},
		{&core.Spread{}, "spread"},
		{core.Fence{}, "fence"},
		{&core.Fence{}, "fence"},
		{core.Gather{}, "gather"},
		{&core.Gather{}, "gather"},
		{core.Drained{}, "drained"},
		{&core.Drained{}, "drained"},
		{core.Ban{}, "ban"},
		{&core.Ban{}, "ban"},
		{otherRule{}, "other"},
	}
	for _, c := range cases {
		if got := RuleKind(c.r); got != c.want {
			t.Errorf("RuleKind(%T) = %q, want %q", c.r, got, c.want)
		}
	}
}

// TestLedgerTopKTruncation: ranking is by seconds descending with
// name-ascending ties, truncated at k, and k <= 0 returns everything.
func TestLedgerTopKTruncation(t *testing.T) {
	l := &Ledger{atoms: map[Attribution]float64{
		{VJob: "jc", Node: "n2", Kind: "cpu"}: 5,
		{VJob: "ja", Node: "n0", Kind: "cpu"}: 30,
		{VJob: "jb", Node: "n1", Kind: "cpu"}: 5,
		{VJob: "jd", Node: "n3", Kind: "cpu"}: 20,
	}, rules: map[string]float64{}}
	top := l.TopVJobs(2)
	if len(top) != 2 || top[0].VJob != "ja" || top[1].VJob != "jd" {
		t.Fatalf("TopVJobs(2) = %+v", top)
	}
	all := l.TopVJobs(0)
	if len(all) != 4 {
		t.Fatalf("TopVJobs(0) = %d rows, want all 4", len(all))
	}
	// jb and jc tie at 5: name ascending.
	if all[2].VJob != "jb" || all[3].VJob != "jc" {
		t.Fatalf("tie order = %+v", all[2:])
	}
}

// TestLedgerSampleAllocatesNothing: once its buffers have grown, a
// sample of an overloaded configuration — violations on two nodes and
// two dimensions, one of them on a node no VM demands, and a
// transfer-born one — allocates nothing, and charges what it did on
// the first sample.
func TestLedgerSampleAllocatesNothing(t *testing.T) {
	cfg := vjob.NewConfiguration()
	for i := 0; i < 3; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("n%d", i), 2, 2048))
	}
	for i, host := range []string{"n0", "n0", "n0", "n1", "n1", "n2"} {
		name := fmt.Sprintf("v%d", i)
		cfg.AddVM(vjob.NewVM(name, fmt.Sprintf("j%d", i%2), 1, 1024))
		if err := cfg.SetRunning(name, host); err != nil {
			t.Fatal(err)
		}
	}
	a := &sim.Audit{
		Violations: cfg.Violations(),
		Transfer:   []vjob.Violation{{Node: "n2", Resource: resources.NetBW.String()}},
	}
	a.Violations = append(a.Violations, vjob.Violation{Node: "n1", Resource: resources.NetBW.String()})
	l := &Ledger{atoms: map[Attribution]float64{}, rules: map[string]float64{}}
	l.sample(cfg, a)
	want := fmt.Sprint(l.pending)
	if len(l.pending) != 4 {
		t.Fatalf("charged %v, want two capacity violations on n0, one off-demand on n1 and one transfer", l.pending)
	}
	if allocs := testing.AllocsPerRun(50, func() { l.sample(cfg, a) }); allocs != 0 {
		t.Fatalf("one sample allocated %v times, want 0", allocs)
	}
	if got := fmt.Sprint(l.pending); got != want {
		t.Fatalf("a warm sample charges %s, the first charged %s", got, want)
	}
}
