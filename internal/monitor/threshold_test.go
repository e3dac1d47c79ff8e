package monitor

import (
	"fmt"
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

// TestThresholdSustainedOverload: one hot sample is noise; Sustain
// consecutive hot samples fire exactly one LoadChange, and no second
// event fires until the node cools below Low.
func TestThresholdSustainedOverload(t *testing.T) {
	cfg := thresholdConfig()
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	w := &ThresholdWatcher{High: 0.9, Low: 0.5, Sustain: 2}

	// CPU demand 2 of 2 = 1.0 > High: hot.
	if evs := w.Sample(0, cfg); len(evs) != 0 {
		t.Fatalf("first hot sample fired early: %v", evs)
	}
	evs := w.Sample(10, cfg)
	if len(evs) != 1 || evs[0].Kind != core.LoadChange {
		t.Fatalf("sustained overload events: %v", evs)
	}
	if len(evs[0].Nodes) != 1 || evs[0].Nodes[0] != "n0" || len(evs[0].VMs) != 1 {
		t.Fatalf("event scope: %+v", evs[0])
	}
	// Still hot: hysteresis holds the event back.
	for i := 0; i < 5; i++ {
		if evs := w.Sample(float64(20+10*i), cfg); len(evs) != 0 {
			t.Fatalf("re-fired while hot: %v", evs)
		}
	}
	// Cool below Low, then overload again: a new event may fire.
	cfg.VM("v1").SetCPUDemand(0)
	if evs := w.Sample(100, cfg); len(evs) != 0 {
		t.Fatalf("cooling fired: %v", evs)
	}
	cfg.VM("v1").SetCPUDemand(2)
	w.Sample(110, cfg)
	if evs := w.Sample(120, cfg); len(evs) != 1 {
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
	w := &ThresholdWatcher{Sustain: 1}
	// 99% memory > default High 0.9 and Sustain 1: fires immediately,
	// and the zero-capacity CPU (with zero demand) contributes nothing.
	if evs := w.Sample(0, cfg); len(evs) != 1 || evs[0].Kind != core.LoadChange {
		t.Fatalf("memory overload: %v", evs)
	}
	if evs := w.Sample(10, cfg); len(evs) != 0 {
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
	w := &ThresholdWatcher{Interval: 10, High: 0.9, Low: 0.5, Sustain: 2,
		Emit: func(ev core.Event) { got = append(got, ev) }}
	w.Attach(c)
	c.Run(100)
	if len(got) != 1 || got[0].Kind != core.LoadChange {
		t.Fatalf("attached watcher events: %v", got)
	}
	if got[0].At < 10 {
		t.Fatalf("event time: %+v", got[0])
	}
	w.Stop()
	before := len(got)
	c.Run(200)
	if len(got) != before {
		t.Fatal("watcher kept sampling after Stop")
	}
	_ = fmt.Sprint(got)
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
	w := &ThresholdWatcher{High: 0.9, Low: 0.5, Sustain: 2}
	if evs := w.Sample(0, cfg); len(evs) != 0 {
		t.Fatalf("first hot sample fired early: %v", evs)
	}
	evs := w.Sample(10, cfg)
	if len(evs) != 1 || evs[0].Kind != core.LoadChange || evs[0].Nodes[0] != "n0" {
		t.Fatalf("net overload events: %v", evs)
	}
	// Hysteresis holds per dimension.
	if evs := w.Sample(20, cfg); len(evs) != 0 {
		t.Fatalf("re-fired while net-hot: %v", evs)
	}
}

// TestThresholdPerKindWatermarks: PerKind overrides move one
// dimension's trip point without touching the defaults, and a node hot
// on two dimensions at once still fires a single LoadChange.
func TestThresholdPerKindWatermarks(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cap := resources.New(2, 4096)
	cap.Set(resources.NetBW, 1000)
	cfg.AddNode(vjob.NewNodeRes("n0", cap))
	d := resources.New(2, 512)
	d.Set(resources.NetBW, 800) // 80% net, 100% cpu
	cfg.AddVM(vjob.NewVMRes("v1", "j", d))
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	// Default High 0.9 would ignore 80% net; the override trips it.
	w := &ThresholdWatcher{
		High: 0.9, Low: 0.5, Sustain: 2,
		PerKind: map[resources.Kind]Watermarks{resources.NetBW: {High: 0.7}},
	}
	if evs := w.Sample(0, cfg); len(evs) != 0 {
		t.Fatalf("first hot sample fired early: %v", evs)
	}
	// cpu (1.0 > 0.9) and net (0.8 > 0.7) are both hot; one event.
	evs := w.Sample(10, cfg)
	if len(evs) != 1 || evs[0].Kind != core.LoadChange {
		t.Fatalf("override events: %v", evs)
	}
	// Drop net below its Low while cpu stays hot: the cpu state machine
	// is already fired, the net one re-arms — still no event storm.
	cfg.VM("v1").Demand.Set(resources.NetBW, 100)
	for i := 0; i < 3; i++ {
		if evs := w.Sample(float64(20+10*i), cfg); len(evs) != 0 {
			t.Fatalf("stormed: %v", evs)
		}
	}
	// Net climbs again past its override High: its own state machine
	// fires independently of the still-hot cpu, after Sustain samples.
	cfg.VM("v1").Demand.Set(resources.NetBW, 800)
	if evs := w.Sample(60, cfg); len(evs) != 0 {
		t.Fatalf("net re-fired before sustain: %v", evs)
	}
	if evs := w.Sample(70, cfg); len(evs) != 1 {
		t.Fatalf("re-armed net overload not fired: %v", evs)
	}
}

// TestThresholdDefaults: zero-value knobs resolve to the documented
// defaults, and PerKind entries with one zero field fall back for the
// other.
func TestThresholdDefaults(t *testing.T) {
	w := &ThresholdWatcher{}
	if w.interval() != 10 || w.sustain() != 3 {
		t.Fatalf("defaults: interval=%v sustain=%d", w.interval(), w.sustain())
	}
	if w.high(resources.CPU) != 0.9 || w.low(resources.CPU) != 0.7 {
		t.Fatalf("defaults: high=%v low=%v", w.high(resources.CPU), w.low(resources.CPU))
	}
	w.Interval = 5
	w.High = 0.8
	w.Low = 0.6
	w.PerKind = map[resources.Kind]Watermarks{resources.NetBW: {High: 0.5}}
	if w.interval() != 5 || w.high(resources.Memory) != 0.8 || w.low(resources.Memory) != 0.6 {
		t.Fatal("explicit knobs ignored")
	}
	if w.high(resources.NetBW) != 0.5 {
		t.Fatal("PerKind High ignored")
	}
	// The fallback Low (0.6) sits above the overridden High (0.5);
	// clamping keeps the hysteresis non-inverted instead of letting a
	// 0.55-utilization node fire and re-arm every sample.
	if w.low(resources.NetBW) != 0.5 {
		t.Fatalf("inverted watermarks not clamped: low=%v", w.low(resources.NetBW))
	}
}

// TestThresholdInvertedWatermarksNoStorm: a PerKind High below the
// default Low must not turn the hysteresis into an every-sample event
// storm.
func TestThresholdInvertedWatermarksNoStorm(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cap := resources.New(8, 8192)
	cap.Set(resources.NetBW, 1000)
	cfg.AddNode(vjob.NewNodeRes("n0", cap))
	d := resources.New(1, 512)
	d.Set(resources.NetBW, 650) // 65%: above the override High, below the default Low
	cfg.AddVM(vjob.NewVMRes("v1", "j", d))
	if err := cfg.SetRunning("v1", "n0"); err != nil {
		t.Fatal(err)
	}
	w := &ThresholdWatcher{Sustain: 1,
		PerKind: map[resources.Kind]Watermarks{resources.NetBW: {High: 0.6}}}
	if evs := w.Sample(0, cfg); len(evs) != 1 {
		t.Fatalf("override trip: %v", evs)
	}
	for i := 1; i <= 5; i++ {
		if evs := w.Sample(float64(10*i), cfg); len(evs) != 0 {
			t.Fatalf("event storm at sample %d: %v", i, evs)
		}
	}
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
	free := cfg.FreeResources()
	n := cfg.Node("n0")
	if u := utilization(free, n, resources.CPU); u != 2 {
		t.Fatalf("cpu on zero-capacity node = %v", u)
	}
	if u := utilization(free, n, resources.NetBW); u != 0 {
		t.Fatalf("undemanded zero-capacity dimension = %v", u)
	}
	if u := utilization(free, n, resources.Memory); u != 0.5 {
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
