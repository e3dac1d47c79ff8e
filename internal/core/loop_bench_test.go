package core

import (
	"context"
	"fmt"
	"testing"

	"cwcs/internal/vjob"
)

// benchChurnCluster builds a cluster of nodes 1-CPU nodes with one
// running VM per even node and fences pairing nodes {2i, 2i+1}, so the
// partitioner carves deterministic two-node slices.
func benchChurnCluster(b testing.TB, nodes int) (*vjob.Configuration, []PlacementRule, []*vjob.VJob) {
	b.Helper()
	cfg := vjob.NewConfiguration()
	for i := 0; i < nodes; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("n%03d", i), 1, 4096))
	}
	var rules []PlacementRule
	var jobs []*vjob.VJob
	for i := 0; i < nodes; i += 2 {
		job := fmt.Sprintf("j%03d", i)
		v := vjob.NewVM(fmt.Sprintf("v%03d", i), job, 1, 1024)
		j := vjob.NewVJob(job, 0, v)
		cfg.AddVM(v)
		if err := cfg.SetRunning(v.Name, fmt.Sprintf("n%03d", i)); err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, j)
		rules = append(rules, Fence{
			VMs:   []string{v.Name, fmt.Sprintf("x%03d", i)},
			Nodes: []string{fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", i+1)},
		})
	}
	return cfg, rules, jobs
}

// BenchmarkLoopEventIteration measures one event-driven wake-up end to
// end: an arrival overloads one slice, the loop re-solves just that
// slice and executes the one-migration switch.
func BenchmarkLoopEventIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, rules, jobs := benchChurnCluster(b, 64)
		a := &fakeManaged{fakeActuator: fakeActuator{cfg: cfg}, poolSecs: 1}
		l := &Loop{
			Decision:    keepAll,
			EventDriven: true,
			Debounce:    1,
			Optimizer:   Optimizer{Partitions: 0, Workers: 1},
			Rules:       rules,
			Queue:       func() []*vjob.VJob { return jobs },
		}
		l.Start(a)
		a.run(1)
		cfg.AddVM(vjob.NewVM("x000", "j000", 1, 1024))
		if err := cfg.SetRunning("x000", "n000"); err != nil {
			b.Fatal(err)
		}
		l.Notify(a, Event{Kind: VMArrival, VMs: []string{"x000"}, Nodes: []string{"n000"}})
		a.run(100)
		if l.Stats.SliceSolves == 0 {
			b.Fatal("no slice solve happened")
		}
	}
}

// BenchmarkLoopPeriodicIteration measures one periodic round over the
// same cluster and the same arrival: the monolithic observe/decide/
// solve/execute baseline the event-driven engine is compared against.
func BenchmarkLoopPeriodicIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, rules, jobs := benchChurnCluster(b, 64)
		a := &fakeManaged{fakeActuator: fakeActuator{cfg: cfg}, poolSecs: 1}
		cfg.AddVM(vjob.NewVM("x000", "j000", 1, 1024))
		if err := cfg.SetRunning("x000", "n000"); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		l := &Loop{
			Decision:  keepAll,
			Interval:  30,
			Ctx:       ctx,
			Optimizer: Optimizer{Partitions: 0, Workers: 1},
			Rules:     rules,
			Queue:     func() []*vjob.VJob { return jobs },
		}
		l.Start(a)
		a.run(1)
		cancel()
		if len(l.Records) == 0 {
			b.Fatal("no switch executed")
		}
	}
}

// BenchmarkPartitionSplit isolates the partitioner walk the event loop
// performs at every wake-up.
func BenchmarkPartitionSplit(b *testing.B) {
	cfg, rules, _ := benchChurnCluster(b, 512)
	p := Problem{Src: cfg, Target: map[string]vjob.State{}, Rules: rules}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts, err := (Partitioner{}).Split(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(parts) < 2 {
			b.Fatal("no decomposition")
		}
	}
}
