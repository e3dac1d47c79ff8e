package monitor

import (
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/duration"
	"cwcs/internal/resources"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

func thresholdConfig() *vjob.Configuration {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 2, 4096))
	cfg.AddNode(vjob.NewNode("n1", 2, 4096))
	cfg.AddVM(vjob.NewVM("v1", "j", 2, 1024))
	return cfg
}

// TestThresholdSustainedOverload: one hot sample is noise; three
// consecutive hot samples fire exactly one LoadChange, and no second
// event fires until the node cools below 0.7.
func TestThresholdSustainedOverload(t *testing.T) {
	cfg := thresholdConfig()
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	w := &ThresholdWatcher{}

	// CPU demand 2 of 2 = 1.0 > 0.9: hot.
	for _, at := range []float64{0, 10} {
		if evs := w.Sample(at, cfg); len(evs) != 0 {
			t.Fatalf("hot sample at %v fired early: %v", at, evs)
		}
	}
	evs := w.Sample(20, cfg)
	if len(evs) != 1 || evs[0].Kind != core.LoadChange {
		t.Fatalf("sustained overload events: %v", evs)
	}
	if len(evs[0].Nodes) != 1 || evs[0].Nodes[0] != "n0" || len(evs[0].VMs) != 1 {
		t.Fatalf("event scope: %+v", evs[0])
	}
	// Still hot: hysteresis holds the event back.
	for i := 0; i < 5; i++ {
		if evs := w.Sample(float64(30+10*i), cfg); len(evs) != 0 {
			t.Fatalf("re-fired while hot: %v", evs)
		}
	}
	// Cool below 0.7, then overload again: a new event may fire.
	cfg.VM("v1").SetCPUDemand(0)
	if evs := w.Sample(100, cfg); len(evs) != 0 {
		t.Fatalf("cooling fired: %v", evs)
	}
	cfg.VM("v1").SetCPUDemand(2)
	w.Sample(110, cfg)
	w.Sample(120, cfg)
	if evs := w.Sample(130, cfg); len(evs) != 1 {
		t.Fatalf("re-armed overload not fired: %v", evs)
	}
}

// TestThresholdNodeDownUp: nodes vanishing from (and returning to) the
// configuration become NodeDown / NodeUp events.
func TestThresholdNodeDownUp(t *testing.T) {
	cfg := thresholdConfig()
	w := &ThresholdWatcher{}
	if evs := w.Sample(0, cfg); len(evs) != 0 {
		t.Fatalf("baseline fired: %v", evs)
	}
	if err := cfg.RemoveNode("n1"); err != nil {
		t.Fatal(err)
	}
	evs := w.Sample(10, cfg)
	if len(evs) != 1 || evs[0].Kind != core.NodeDown || evs[0].Nodes[0] != "n1" {
		t.Fatalf("node-down events: %v", evs)
	}
	if evs := w.Sample(20, cfg); len(evs) != 0 {
		t.Fatalf("node-down re-fired: %v", evs)
	}
	cfg.AddNode(vjob.NewNode("n1", 2, 4096))
	evs = w.Sample(30, cfg)
	if len(evs) != 1 || evs[0].Kind != core.NodeUp || evs[0].Nodes[0] != "n1" {
		t.Fatalf("node-up events: %v", evs)
	}
}

// TestThresholdMemoryAndZeroCapacity: the utilization fraction takes
// the worse of CPU and memory, and zero-capacity nodes only count as
// saturated when demanded.
func TestThresholdMemoryAndZeroCapacity(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 0, 1000))
	cfg.AddVM(vjob.NewVM("v1", "j", 0, 990))
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	w := &ThresholdWatcher{}
	// 99% memory > 0.9: fires on the third sample, and the
	// zero-capacity CPU (with zero demand) contributes nothing.
	w.Sample(0, cfg)
	w.Sample(10, cfg)
	if evs := w.Sample(20, cfg); len(evs) != 1 || evs[0].Kind != core.LoadChange {
		t.Fatalf("memory overload: %v", evs)
	}
	if evs := w.Sample(30, cfg); len(evs) != 0 {
		t.Fatalf("hysteresis broken: %v", evs)
	}
}

// TestThresholdAttachFeedsSim: wired to the simulator, the watcher
// samples on the virtual clock and pushes events through Emit.
func TestThresholdAttachFeedsSim(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 1, 4096))
	cfg.AddVM(vjob.NewVM("v1", "j", 1, 1024))
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	c := sim.New(cfg, duration.Default())
	c.SetWorkload("v1", []sim.Phase{{CPU: 1, Seconds: 500}})

	var got []core.Event
	w := &ThresholdWatcher{Emit: func(ev core.Event) { got = append(got, ev) }}
	w.Attach(c)
	c.Run(100)
	if len(got) != 1 || got[0].Kind != core.LoadChange {
		t.Fatalf("attached watcher events: %v", got)
	}
	if got[0].At != 20 {
		t.Fatalf("event time: %+v, want the third sample at 20", got[0])
	}
}

// TestThresholdExtraDimension: a node saturating only its network
// capacity — a dimension the pre-multi-resource watcher never saw —
// trips the watcher with the same hysteresis discipline.
func TestThresholdExtraDimension(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cap := resources.New(8, 16384)
	cap.Set(resources.NetBW, 1000)
	cfg.AddNode(vjob.NewNodeRes("n0", cap))
	d := resources.New(1, 512)
	d.Set(resources.NetBW, 950) // 95% net, 12% cpu, 3% mem
	cfg.AddVM(vjob.NewVMRes("v1", "j", d))
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	w := &ThresholdWatcher{}
	for _, at := range []float64{0, 10} {
		if evs := w.Sample(at, cfg); len(evs) != 0 {
			t.Fatalf("hot sample at %v fired early: %v", at, evs)
		}
	}
	evs := w.Sample(20, cfg)
	if len(evs) != 1 || evs[0].Kind != core.LoadChange || evs[0].Nodes[0] != "n0" {
		t.Fatalf("net overload events: %v", evs)
	}
	// Hysteresis holds per dimension.
	if evs := w.Sample(30, cfg); len(evs) != 0 {
		t.Fatalf("re-fired while net-hot: %v", evs)
	}
}

// TestThresholdPerKindWatermarks: every dimension runs its own state
// machine against the watermarks, and a node hot on two dimensions at
// once still fires a single LoadChange.
func TestThresholdPerKindWatermarks(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cap := resources.New(2, 4096)
	cap.Set(resources.NetBW, 1000)
	cfg.AddNode(vjob.NewNodeRes("n0", cap))
	d := resources.New(2, 512)
	d.Set(resources.NetBW, 950) // 95% net, 100% cpu
	cfg.AddVM(vjob.NewVMRes("v1", "j", d))
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	w := &ThresholdWatcher{}
	w.Sample(0, cfg)
	if evs := w.Sample(10, cfg); len(evs) != 0 {
		t.Fatalf("hot sample fired early: %v", evs)
	}
	// cpu (1.0) and net (0.95) are both hot; one event.
	evs := w.Sample(20, cfg)
	if len(evs) != 1 || evs[0].Kind != core.LoadChange {
		t.Fatalf("two-dimension events: %v", evs)
	}
	// Drop net below 0.7 while cpu stays hot: the cpu state machine is
	// already fired, the net one re-arms — still no event storm.
	cfg.VM("v1").Demand.Set(resources.NetBW, 100)
	for i := 0; i < 3; i++ {
		if evs := w.Sample(float64(30+10*i), cfg); len(evs) != 0 {
			t.Fatalf("stormed: %v", evs)
		}
	}
	// Net climbs again past 0.9: its own state machine fires
	// independently of the still-hot cpu, after three samples.
	cfg.VM("v1").Demand.Set(resources.NetBW, 950)
	for _, at := range []float64{60, 70} {
		if evs := w.Sample(at, cfg); len(evs) != 0 {
			t.Fatalf("net re-fired before three samples: %v", evs)
		}
	}
	if evs := w.Sample(80, cfg); len(evs) != 1 {
		t.Fatalf("re-armed net overload not fired: %v", evs)
	}
}

// TestThresholdDefaults: the watermarks are 0.9 (strictly above is
// hot) and 0.7 (strictly below re-arms), with three samples to fire.
func TestThresholdDefaults(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 10, 4096))
	cfg.AddVM(vjob.NewVM("v1", "j", 9, 512))
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	w := &ThresholdWatcher{}
	sample := func(at float64, cpu, want int) {
		t.Helper()
		cfg.VM("v1").SetCPUDemand(cpu)
		if evs := w.Sample(at, cfg); len(evs) != want {
			t.Fatalf("t=%v cpu=%d: %d events, want %d: %v", at, cpu, len(evs), want, evs)
		}
	}
	for i := 0; i < 5; i++ {
		sample(float64(10*i), 9, 0) // exactly 0.9 is not hot
	}
	sample(50, 10, 0)
	sample(60, 10, 0)
	sample(70, 10, 1)
	sample(80, 7, 0) // exactly 0.7 does not re-arm
	sample(90, 10, 0)
	sample(100, 10, 0)
	sample(110, 10, 0)
	sample(120, 6, 0) // re-armed
	sample(130, 10, 0)
	sample(140, 10, 0)
	sample(150, 10, 1)
}

// TestUtilizationZeroCapacity: demanding a dimension the node does not
// offer reads as saturated; not demanding it reads as idle.
func TestUtilizationZeroCapacity(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 0, 1024))
	cfg.AddVM(vjob.NewVM("v1", "j", 1, 512))
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	n, used := cfg.Node("n0"), cfg.Used("n0")
	if u := utilization(n, used, resources.CPU); u != 2 {
		t.Fatalf("cpu on zero-capacity node = %v", u)
	}
	if u := utilization(n, used, resources.NetBW); u != 0 {
		t.Fatalf("undemanded zero-capacity dimension = %v", u)
	}
	if u := utilization(n, used, resources.Memory); u != 0.5 {
		t.Fatalf("memory = %v", u)
	}
}

// TestWatchViolationSeconds: the ledger's integral advances with
// virtual time while violations persist.
func TestWatchViolationSeconds(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cfg.AddNode(vjob.NewNode("n0", 1, 1024))
	c := sim.New(cfg, duration.Default())
	get := WatchLedger(c, nil).Total
	c.Schedule(0, func() {
		for _, name := range []string{"a", "b"} {
			cfg.AddVM(vjob.NewVM(name, "j", 1, 256))
			if err := cfg.SetRunning(name, "n0"); err != nil {
				t.Fatal(err)
			}
		}
	})
	c.Schedule(10, func() {}) // advance the clock past the violation window
	c.Run(20)
	if got := get(); got < 10 {
		t.Fatalf("violation-seconds = %v, want >= 10", got)
	}
}
