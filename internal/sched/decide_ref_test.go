package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cwcs/internal/packing"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// The functions below are the two decision modules as they were before
// one packing.FirstFit served a whole queue: a configuration holding
// the placed VMs, and one FirstFitDecrease call, with its whole-cluster
// free map, per vjob. They are kept verbatim as the reference Decide
// must match.

func refConsolidationDecide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	target := make(map[string]vjob.State, len(queue))
	temp := refEmptyClusterLike(cfg)
	for _, j := range SortQueue(nil, queue) {
		cur := cfg.VJobState(j)
		if cur == vjob.Terminated {
			continue
		}
		if refTryPlace(temp, j) {
			target[j.Name] = vjob.Running
			continue
		}
		// Cannot run this round: running and sleeping vjobs sleep,
		// waiting vjobs keep waiting.
		if cur == vjob.Running || cur == vjob.Sleeping {
			target[j.Name] = vjob.Sleeping
		} else {
			target[j.Name] = vjob.Waiting
		}
	}
	return target
}

func refStaticFCFSDecide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	target := make(map[string]vjob.State, len(queue))
	temp := refEmptyClusterLike(cfg)
	// Reserve resources of the already-running vjobs first: they are
	// immovable under static allocation.
	for _, j := range SortQueue(nil, queue) {
		if cfg.VJobState(j) == vjob.Running {
			target[j.Name] = vjob.Running
			for _, v := range j.VMs {
				if h := cfg.HostOf(v.Name); h != "" {
					// Mirror the real placement so fragmentation is
					// honoured, as a static RMS would.
					sv := booked(v)
					temp.AddVM(sv)
					_ = temp.SetRunning(sv.Name, h)
				}
			}
		}
	}
	for _, j := range SortQueue(nil, queue) {
		cur := cfg.VJobState(j)
		if cur != vjob.Waiting {
			continue
		}
		if refTryPlace(temp, bookedJob(j)) {
			target[j.Name] = vjob.Running
			continue
		}
		target[j.Name] = vjob.Waiting
		break // strict FCFS: nobody jumps the queue
	}
	return target
}

// booked returns the VM as the RMS accounts for it: one processing
// unit and its memory, for the whole walltime.
func booked(v *vjob.VM) *vjob.VM {
	return vjob.NewVM(v.Name, v.VJob, 1, v.MemoryDemand())
}

func bookedJob(j *vjob.VJob) *vjob.VJob {
	out := &vjob.VJob{Name: j.Name, Priority: j.Priority, Submitted: j.Submitted}
	for _, v := range j.VMs {
		out.VMs = append(out.VMs, booked(v))
	}
	return out
}

func refEmptyClusterLike(cfg *vjob.Configuration) *vjob.Configuration {
	out := vjob.NewConfiguration()
	for _, n := range cfg.Nodes() {
		out.AddNode(n)
	}
	return out
}

func refTryPlace(temp *vjob.Configuration, j *vjob.VJob) bool {
	for _, v := range j.VMs {
		temp.AddVM(v)
	}
	if err := packing.FirstFitDecrease(temp, j.VMs); err != nil {
		for _, v := range j.VMs {
			temp.RemoveVM(v.Name)
		}
		return false
	}
	return true
}

// decideInstance generates the instance of one seed of the 2-D, 4-D or
// NIC-poor mix, with shuffled priorities and some vjobs terminated.
func decideInstance(seed int64) (*vjob.Configuration, []*vjob.VJob) {
	rng := rand.New(rand.NewSource(seed))
	nodes := 2 + rng.Intn(60)
	opts := workload.GenerateOptions{Nodes: nodes, NodeCPU: 2, NodeMemory: 4096, VMs: nodes * (1 + rng.Intn(3))}
	switch seed % 3 {
	case 1:
		opts.NodeNet, opts.NodeDisk = 1000, 400
		opts.NetFraction, opts.DiskFraction = 0.3, 0.3
	case 2:
		opts.NodeNet, opts.NICPoorNet, opts.NICPoorFraction = 1000, 100, 0.25
		opts.NetFraction = 0.3
	}
	g := workload.GenerateConfiguration(rng, opts)
	// Shuffled priorities reorder the queue; a vjob whose VMs left the
	// configuration is terminated.
	for _, j := range g.Jobs {
		j.Priority = rng.Intn(len(g.Jobs))
		if rng.Intn(10) == 0 {
			for _, v := range j.VMs {
				g.Cfg.RemoveVM(v.Name)
			}
		}
	}
	return g.Cfg, g.Jobs
}

// decideCase runs both decision modules and their references on one
// generated instance of the 2-D, 4-D or NIC-poor mix, and returns a
// description of the first difference, or "", and how many vjobs the
// consolidation module could not run.
func decideCase(seed int64) (diff string, benched int) {
	cfg, jobs := decideInstance(seed)
	for _, m := range decideModules {
		got, want := m.got(cfg, jobs), m.want(cfg, jobs)
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("%s targets differ:\ngot  %v\nwant %v", m.name, got, want), 0
		}
		if m.name == "Consolidation" {
			for _, s := range got {
				if s != vjob.Running {
					benched++
				}
			}
		}
	}
	return "", benched
}

// TestDecideMatchesReference: on 600 generated instances of the three
// mixes, both decision modules return the reference's target map.
func TestDecideMatchesReference(t *testing.T) {
	full := 0
	for seed := int64(0); seed < 600; seed++ {
		diff, benched := decideCase(seed)
		if diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		if benched > 0 {
			full++
		}
	}
	if full == 0 || full == 600 {
		t.Fatalf("%d of 600 queues left a vjob out: the cases miss a path", full)
	}
}

// FuzzDecide explores further seeds of the same comparison.
func FuzzDecide(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 11} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if diff, _ := decideCase(seed); diff != "" {
			t.Fatal(diff)
		}
	})
}

// decideModules are the two decision modules and their references.
var decideModules = []struct {
	name      string
	got, want func(*vjob.Configuration, []*vjob.VJob) map[string]vjob.State
}{
	{"Consolidation", Consolidation{}.Decide, refConsolidationDecide},
	{"StaticFCFS", StaticFCFS{}.Decide, refStaticFCFSDecide},
}

// targetSink makes the map TestDecideAllocatesOnlyItsTarget builds
// escape, as a returned one does.
var targetSink map[string]vjob.State

// TestDecideAllocatesOnlyItsTarget: once a Decide has left its scratch
// idle, each decision module allocates the target map it returns and
// nothing else — as many allocations as a map of that size filled
// alike — on instances of the three mixes, and leaves the scratch idle
// and cleared.
func TestDecideAllocatesOnlyItsTarget(t *testing.T) {
	for seed := int64(3); seed < 6; seed++ {
		cfg, jobs := decideInstance(seed)
		for _, m := range decideModules {
			target := m.got(cfg, jobs)
			own := testing.AllocsPerRun(10, func() {
				out := make(map[string]vjob.State, len(jobs))
				for k, s := range target {
					out[k] = s
				}
				targetSink = out
			})
			if got := testing.AllocsPerRun(10, func() { m.got(cfg, jobs) }); got != own {
				t.Errorf("seed %d: %s.Decide allocates %.0f times, its %d-vjob target map %.0f", seed, m.name, got, len(jobs), own)
			}
			if sc := idle.sc; sc == nil || !clearedScratch(sc) {
				t.Errorf("seed %d: %s.Decide left no idle scratch, or one holding its input", seed, m.name)
			}
		}
	}
}

// clearedScratch reports whether sc holds no node, vjob or VM name
// (its VM pointers point into its own booked VMs).
func clearedScratch(sc *scratch) bool {
	for _, n := range sc.nodes[:cap(sc.nodes)] {
		if n != nil {
			return false
		}
	}
	for _, j := range sc.queue[:cap(sc.queue)] {
		if j != nil {
			return false
		}
	}
	for _, v := range sc.booked[:cap(sc.booked)] {
		if v != (vjob.VM{}) {
			return false
		}
	}
	return true
}

// TestConcurrentDecideMatchesSerial: four goroutines decide on
// different configurations at once, taking and leaving the idle
// scratch in whatever order they meet, and each target map equals the
// one the same call returned alone and the reference's.
func TestConcurrentDecideMatchesSerial(t *testing.T) {
	type call struct {
		cfg     *vjob.Configuration
		jobs    []*vjob.VJob
		targets [2]map[string]vjob.State
	}
	var calls []*call
	for seed := int64(0); seed < 9; seed++ {
		c := &call{}
		c.cfg, c.jobs = decideInstance(seed)
		for i, m := range decideModules {
			if c.targets[i] = m.got(c.cfg, c.jobs); !reflect.DeepEqual(c.targets[i], m.want(c.cfg, c.jobs)) {
				t.Fatalf("seed %d: %s differs from its reference", seed, m.name)
			}
		}
		calls = append(calls, c)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 24 {
				c := calls[(k+2*g)%len(calls)]
				i := (k + g) % len(decideModules)
				if got := decideModules[i].got(c.cfg, c.jobs); !reflect.DeepEqual(got, c.targets[i]) {
					t.Errorf("goroutine %d, call %d: %s targets %v, alone %v", g, k, decideModules[i].name, got, c.targets[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
