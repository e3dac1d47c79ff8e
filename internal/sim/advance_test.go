package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"cwcs/internal/duration"
	"cwcs/internal/monitor"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// TestSimultaneousCompletionsAreOrdered: VMs whose phases end at the
// same instant advance in node order, then VM-name order, so the load
// changes the loop sees (and the audits between them) repeat from run
// to run. Node order and name order disagree on purpose, and the last
// node holds two VMs.
func TestSimultaneousCompletionsAreOrdered(t *testing.T) {
	placement := [][2]string{ // node, VM
		{"n0", "f"}, {"n1", "e"}, {"n2", "d"}, {"n3", "c"}, {"n4", "b"}, {"n5", "a"}, {"n5", "g"},
	}
	var want []string
	for round := 0; round < 2; round++ { // CPU 1 -> 0, then done
		for _, p := range placement {
			want = append(want, p[1])
		}
	}
	for run := 0; run < 20; run++ {
		cfg := vjob.NewConfiguration()
		for i := 0; i < 6; i++ {
			cfg.AddNode(vjob.NewNode(fmt.Sprintf("n%d", i), 2, 4096))
		}
		c := sim.New(cfg, duration.Default())
		for _, p := range placement {
			cfg.AddVM(vjob.NewVM(p[1], "j", 1, 512))
			if err := cfg.SetRunning(p[1], p[0]); err != nil {
				t.Fatal(err)
			}
			c.SetWorkload(p[1], []sim.Phase{{CPU: 1, Seconds: 10}, {CPU: 0, Seconds: 5}})
		}
		var got []string
		c.OnLoadChange(func(vm string) { got = append(got, vm) })
		c.Run(100)
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: load changes in order %v, want %v", run, got, want)
		}
	}
}

var sink []*vjob.Node

// TestAdvanceAllocations pins the steady cost of one advance on a
// viable 100-node cluster: the shared audit and the three watchers
// reading it allocate nothing, and a step's rates allocate no more than
// listing the nodes does.
func TestAdvanceAllocations(t *testing.T) {
	cfg := vjob.NewConfiguration()
	for i := 0; i < 100; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("n%03d", i), 4, 8192))
	}
	c := sim.New(cfg, duration.Default())
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("v%03d", i)
		cfg.AddVM(vjob.NewVM(name, fmt.Sprintf("j%02d", i/10), 1, 1024))
		if err := cfg.SetRunning(name, fmt.Sprintf("n%03d", i%100)); err != nil {
			t.Fatal(err)
		}
		c.SetWorkload(name, []sim.Phase{{CPU: 1, Seconds: 1e6}})
	}
	if !cfg.Viable() {
		t.Fatalf("cluster not viable: %v", cfg.Violations())
	}
	monitor.WatchLedger(c, nil)
	monitor.WatchRecovery(c)
	inv := sim.WatchInvariants(c)
	c.Run(1)
	if n := testing.AllocsPerRun(100, c.RunChecks); n != 0 {
		t.Errorf("one advance's audit allocates %v times, want 0", n)
	}
	nodes := testing.AllocsPerRun(100, func() { sink = cfg.Nodes() })
	if n := testing.AllocsPerRun(100, c.Rates); n > nodes {
		t.Errorf("one step's rates allocate %v times, Nodes() %v", n, nodes)
	}
	if err := inv.Err(); err != nil {
		t.Fatal(err)
	}
}
