package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cwcs/internal/cp"
	"cwcs/internal/obs"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/dirty_slices_pinned.txt")

// pinnedSlices is the carve of the pinned scenarios: six fenced slices
// of three 2-CPU nodes, each fence naming six VMs — as many 1-CPU VMs
// as the slice can run, so every burst stays solvable.
const (
	pinnedSlices   = 6
	pinnedSliceVMs = 6
)

func pinnedNode(s, n int) string { return fmt.Sprintf("s%dn%d", s, n) }
func pinnedVM(s, v int) string   { return fmt.Sprintf("s%dv%d", s, v) }

var pinnedMemory = []int{512, 1024, 2048}

// pinnedCluster builds the fenced cluster of one seeded scenario: two
// or three 1-CPU VMs per slice, on the slice's first two nodes.
func pinnedCluster(t *testing.T, rng *rand.Rand) (*vjob.Configuration, []PlacementRule, []*vjob.VJob) {
	t.Helper()
	cfg := vjob.NewConfiguration()
	var rules []PlacementRule
	var jobs []*vjob.VJob
	for s := 0; s < pinnedSlices; s++ {
		fence := Fence{}
		for n := 0; n < 3; n++ {
			cfg.AddNode(vjob.NewNode(pinnedNode(s, n), 2, 4096))
			fence.Nodes = append(fence.Nodes, pinnedNode(s, n))
		}
		for v := 0; v < pinnedSliceVMs; v++ {
			fence.VMs = append(fence.VMs, pinnedVM(s, v))
		}
		rules = append(rules, fence)
		job := vjob.NewVJob(fmt.Sprintf("j%d", s), 0)
		for v := 0; v < 2+rng.Intn(2); v++ {
			vm := vjob.NewVM(pinnedVM(s, v), job.Name, 1, pinnedMemory[rng.Intn(len(pinnedMemory))])
			job.VMs = append(job.VMs, vm)
			cfg.AddVM(vm)
			mustRun(t, cfg, vm.Name, pinnedNode(s, v%2))
		}
		jobs = append(jobs, job)
	}
	return cfg, rules, jobs
}

// pinnedBusiest returns the slice's most loaded node (the first on a
// tie) and the CPU the slice's VMs demand in total.
func pinnedBusiest(cfg *vjob.Configuration, s int) (node string, demand int) {
	most := -1
	for n := 0; n < 3; n++ {
		used := cfg.Used(pinnedNode(s, n)).Get(resources.CPU)
		demand += used
		if used > most {
			node, most = pinnedNode(s, n), used
		}
	}
	return node, demand
}

// pinnedScenario runs one seeded event-driven scenario: six bursts,
// each hitting the busiest node of one to five slices at once — a VM
// arrives there (even bursts) or a VM running there doubles its CPU
// demand (odd bursts) — so most hit slices must migrate someone. In
// half the bursts every action on the first VM named fails until the
// fault heals, so the switch is repaired mid-execution, some of them
// several times. A slice takes no more than it can run.
func pinnedScenario(t *testing.T, seed int64) (*Loop, *vjob.Configuration) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg, rules, jobs := pinnedCluster(t, rng)
	a := &fakeManaged{fakeActuator: fakeActuator{cfg: cfg}, poolSecs: 1, failVMs: map[string]bool{}}
	l := &Loop{
		Decision:    keepAll,
		EventDriven: true,
		Debounce:    2,
		Optimizer:   Optimizer{Partitions: pinnedSlices, Workers: 1},
		Rules:       rules,
		Queue:       func() []*vjob.VJob { return jobs },
		Solver:      NewSolverTelemetry(1024),
	}
	l.Start(a)
	for burst := 0; burst < 6; burst++ {
		at := 10 + 40*float64(burst)
		picks := rng.Perm(pinnedSlices)[:1+rng.Intn(5)]
		mems := make([]int, len(picks))
		for i := range mems {
			mems[i] = pinnedMemory[rng.Intn(len(pinnedMemory))]
		}
		fail := rng.Intn(2) == 0
		heal := at + 3.5 + 3*float64(rng.Intn(2))
		a.Schedule(at, func() {
			ev := Event{Kind: VMArrival, At: a.Now()}
			if burst%2 == 1 {
				ev.Kind = LoadChange
			}
			for i, s := range picks {
				host, demand := pinnedBusiest(cfg, s)
				if demand == 6 {
					continue
				}
				var name string
				if ev.Kind == LoadChange {
					vm := cfg.RunningOn(host)[0]
					if vm.CPUDemand() == 2 {
						continue
					}
					vm.SetCPUDemand(2)
					name = vm.Name
				} else {
					if len(jobs[s].VMs) == pinnedSliceVMs {
						continue
					}
					name = pinnedVM(s, len(jobs[s].VMs))
					vm := vjob.NewVM(name, jobs[s].Name, 1, mems[i])
					jobs[s].VMs = append(jobs[s].VMs, vm)
					cfg.AddVM(vm)
					mustRun(t, cfg, name, host)
				}
				ev.VMs = append(ev.VMs, name)
				ev.Nodes = append(ev.Nodes, host)
			}
			if len(ev.VMs) == 0 {
				return
			}
			if fail {
				a.failVMs[ev.VMs[0]] = true
			}
			l.Notify(a, ev)
		})
		a.Schedule(heal, func() { a.failVMs = map[string]bool{} })
	}
	a.run(400)
	return l, cfg
}

// pinnedWidened is the hand-built cross-slice repair of
// crossSliceRepairCluster, run to convergence: refused is the repair
// whose splice the execution refuses, falling back to the
// post-execution pass.
func pinnedWidened(t *testing.T, refused bool) (*Loop, *vjob.Configuration) {
	t.Helper()
	l, a, cfg := crossSliceRepairCluster(t)
	l.exec.(*fakeExec).refuse = refused
	l.Solver = NewSolverTelemetry(0)
	l.poolBoundary(a)
	l.next(a)
	a.run(100)
	return l, cfg
}

// pinnedTranscript renders everything the loop decided: its counters,
// every switch, every solve in order, the configuration it left.
func pinnedTranscript(l *Loop, cfg *vjob.Configuration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats %+v\n", l.Stats)
	for _, r := range l.Records {
		fmt.Fprintf(&b, "switch at=%g cost=%d actions=%d pools=%d slices=%d failures=%d\n",
			r.At, r.Cost, r.Actions, r.Pools, r.Slices, r.Failures)
	}
	for _, r := range l.Solver.Snapshot().Recent {
		fmt.Fprintf(&b, "solve virt=%g scope=%s cause=%s winner=%s cost=%d nodes=%d backtracks=%d warm=%t hit=%t\n",
			r.Virt, r.Scope, r.Cause, r.Winner, r.Cost, r.Nodes, r.Backtracks, r.WarmStart, r.WarmHit)
	}
	fmt.Fprintf(&b, "viable=%t\n%s\n", cfg.Viable(), cfg)
	return b.String()
}

// TestDirtySlicesPinned pins what the event-driven loop decides on
// sixteen seeded scenarios and the two hand-built widened repairs. The
// transcript was captured at the last commit whose loop solved dirty
// slices one after another, each under a Timeout of its own (56c15e5);
// it passing unchanged says the batch path solves the same slices, in
// the same order, to the same plans. Workers: 1 and no Timeout, so
// every search ends on a proof and repeats exactly.
func TestDirtySlicesPinned(t *testing.T) {
	var b strings.Builder
	var total LoopStats
	batches := map[int]int{}
	add := func(name string, l *Loop, cfg *vjob.Configuration) {
		fmt.Fprintf(&b, "== %s\n%s", name, pinnedTranscript(l, cfg))
		for _, r := range l.Records {
			batches[r.Slices]++
		}
		total.Repairs += l.Stats.Repairs
		total.WidenedRepairs += l.Stats.WidenedRepairs
		total.FailedRepairs += l.Stats.FailedRepairs
		total.PartitionReuses += l.Stats.PartitionReuses
	}
	for seed := int64(1); seed <= 16; seed++ {
		l, cfg := pinnedScenario(t, seed)
		add(fmt.Sprintf("seed %d", seed), l, cfg)
	}
	l, cfg := pinnedWidened(t, false)
	add("widened", l, cfg)
	l, cfg = pinnedWidened(t, true)
	add("refused", l, cfg)
	got := b.String()

	// The scenarios must keep covering what they were written for.
	for k := 1; k <= 5; k++ {
		if batches[k] == 0 {
			t.Errorf("no switch merged %d slices: %v", k, batches)
		}
	}
	if total.Repairs == 0 || total.WidenedRepairs == 0 || total.FailedRepairs == 0 || total.PartitionReuses == 0 {
		t.Errorf("a path is not covered: %+v", total)
	}

	const golden = "testdata/dirty_slices_pinned.txt"
	if *updatePinned {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("the loop's decisions moved; first difference:\n%s", firstDiff(string(want), got))
	}
}

// firstDiff names the first line two transcripts disagree on.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	section := ""
	for i := 0; i < len(w) && i < len(g); i++ {
		if strings.HasPrefix(w[i], "== ") {
			section = w[i]
		}
		if w[i] != g[i] {
			return fmt.Sprintf("%s line %d\n  pinned: %s\n  got:    %s", section, i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: pinned %d lines, got %d", len(w), len(g))
}

// searchHook is a placement rule that constrains nothing: it runs fn
// from a propagator over its VMs' variables, on the goroutine of
// whatever search it was posted into. One hook covers the VMs of one
// slice, so every slice model gets its own.
type searchHook struct {
	vms []string
	fn  func()
}

func (r searchHook) Apply(s *cp.Solver, vars map[string]*cp.IntVar, _ map[string]int) error {
	var on []*cp.IntVar
	for _, name := range r.vms {
		if v, ok := vars[name]; ok {
			on = append(on, v)
		}
	}
	if len(on) > 0 {
		s.Post(&cp.FuncConstraint{On: on, Run: func(*cp.Solver) error { r.fn(); return nil }})
	}
	return nil
}

func (r searchHook) Check(*vjob.Configuration) error { return nil }
func (r searchHook) ScopeVMs() []string              { return r.vms }
func (r searchHook) BindNodes() []string             { return nil }

func (r searchHook) Rescope(vms, _ map[string]bool) PlacementRule {
	if kept := keepNames(r.vms, vms); len(kept) > 0 {
		return r
	}
	return nil
}

// goroutineID reads the calling goroutine's number off its stack
// header ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// pairedFenceCluster builds a cluster of nodes 1-CPU nodes, one VM
// running on each even node 2i, and a fence binding that VM and the
// x-named VM an arrival adds to nodes {2i, 2i+1}, so the partitioner
// carves deterministic two-node slices.
func pairedFenceCluster(t *testing.T, nodes int) (*vjob.Configuration, []PlacementRule, []*vjob.VJob) {
	t.Helper()
	cfg := vjob.NewConfiguration()
	for i := 0; i < nodes; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("n%03d", i), 1, 4096))
	}
	var rules []PlacementRule
	var jobs []*vjob.VJob
	for i := 0; i < nodes; i += 2 {
		job := fmt.Sprintf("j%03d", i)
		v := vjob.NewVM(fmt.Sprintf("v%03d", i), job, 1, 1024)
		jobs = append(jobs, vjob.NewVJob(job, 0, v))
		cfg.AddVM(v)
		mustRun(t, cfg, v.Name, fmt.Sprintf("n%03d", i))
		rules = append(rules, Fence{
			VMs:   []string{v.Name, fmt.Sprintf("x%03d", i)},
			Nodes: []string{fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", i+1)},
		})
	}
	return cfg, rules, jobs
}

// searchDirtySlices runs one wake-up over k dirty slices (of k+1) of a
// paired-fence cluster, each overloaded by one arrival, and returns
// per slice the goroutine that searched it. The first propagation of
// each of the first meet slice searches to start waits at a barrier
// only meet searches in flight together can pass; late counts those
// that gave up after two seconds.
func searchDirtySlices(t *testing.T, k, meet int) (ran []string, late int) {
	t.Helper()
	cfg, rules, jobs := pairedFenceCluster(t, 2*(k+1))
	var (
		mu      sync.Mutex
		arrived int
		all     = make(chan struct{})
	)
	ran = make([]string, k)
	for i := 0; i < k; i++ {
		var once sync.Once
		rules = append(rules, searchHook{vms: []string{fmt.Sprintf("x%03d", 2*i)}, fn: func() {
			once.Do(func() {
				mu.Lock()
				ran[i] = goroutineID()
				arrived++
				if arrived == meet {
					close(all)
				}
				wait := arrived <= meet
				mu.Unlock()
				if !wait {
					return
				}
				select {
				case <-all:
				case <-time.After(2 * time.Second):
					mu.Lock()
					late++
					mu.Unlock()
				}
			})
		}})
	}
	a := &fakeManaged{fakeActuator: fakeActuator{cfg: cfg}, poolSecs: 1}
	l := &Loop{
		Decision:    keepAll,
		EventDriven: true,
		Optimizer:   Optimizer{Partitions: k + 1, Workers: 1},
		Rules:       rules,
		Queue:       func() []*vjob.VJob { return jobs },
	}
	// One arrival in each of the first k slices, overloading its
	// 1-CPU node.
	ev := Event{Kind: VMArrival}
	for i := 0; i < k; i++ {
		vm, node := fmt.Sprintf("x%03d", 2*i), fmt.Sprintf("n%03d", 2*i)
		arrive(t, cfg, vm, fmt.Sprintf("j%03d", 2*i), node)
		ev.VMs, ev.Nodes = append(ev.VMs, vm), append(ev.Nodes, node)
	}
	l.Notify(a, ev)
	a.run(100)

	if !cfg.Viable() || l.Stats.FullSolves != 0 || len(l.Records) != 1 || l.Records[0].Slices != k {
		t.Fatalf("k=%d: not one switch over %d slices: viable=%t stats=%+v records=%+v",
			k, k, cfg.Viable(), l.Stats, l.Records)
	}
	if arrived != k {
		t.Fatalf("k=%d: %d slice searches started", k, arrived)
	}
	return ran, late
}

// TestDirtySlicesSolveTogether: the searches of a wake-up's k dirty
// slices (of k+1) run on a pool of min(k, GOMAXPROCS) goroutines, the
// loop's own among them, so a batch of one spawns nothing.
func TestDirtySlicesSolveTogether(t *testing.T) {
	// With k ≤ GOMAXPROCS all k are in flight at the same time — the
	// first propagation of each waits at a barrier only all k together
	// can pass, so a loop that solved them one after another would time
	// out there — with the first slice on the loop's goroutine and no
	// two slices on one goroutine.
	t.Run("within GOMAXPROCS", func(t *testing.T) {
		for _, k := range []int{1, 4} {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
			ran, late := searchDirtySlices(t, k, k)
			if late != 0 {
				t.Fatalf("k=%d: %d slice searches never saw the others in flight", k, late)
			}
			if me := goroutineID(); ran[0] != me {
				t.Fatalf("k=%d: first slice searched on goroutine %s, the loop runs on %s", k, ran[0], me)
			}
			for i := 1; i < k; i++ {
				if ran[i] == ran[0] {
					t.Fatalf("k=%d: slices 0 and %d searched on the same goroutine", k, i)
				}
			}
		}
	})
	// With k > GOMAXPROCS exactly GOMAXPROCS goroutines search — the
	// first GOMAXPROCS searches meet at the barrier — one of them the
	// loop's, and every slice is searched.
	t.Run("over GOMAXPROCS", func(t *testing.T) {
		const k, width = 5, 2
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		ran, late := searchDirtySlices(t, k, width)
		if late != 0 {
			t.Fatalf("%d of the first %d slice searches never saw the others in flight", late, width)
		}
		if slices.Contains(ran, "") {
			t.Fatalf("slices searched on goroutines %q: one was not searched", ran)
		}
		if got := slices.Compact(slices.Sorted(slices.Values(ran))); len(got) != width || !slices.Contains(got, goroutineID()) {
			t.Fatalf("slices searched on goroutines %q, want %d of them, the loop's %s among them", ran, width, goroutineID())
		}
	})
}

// TestDirtySlicesShareOneTimeout: four dirty slices, none of which can
// finish its search inside the Timeout, cost the wake-up one Timeout,
// not four, and each searches for its share of it: on a pool of width
// workers, a slice started with n slices not yet started gets
// width/n of what is left, so none gets less than about
// width/k of the Timeout. Every 256th propagation of a slice's hook
// sleeps 1 ms: the ~240 000 propagations of a whole search (65 000
// nodes) then take over a second, and the 64 search nodes between two
// polls of the deadline a millisecond or two, which is how far a slice
// may overrun its share.
func TestDirtySlicesShareOneTimeout(t *testing.T) {
	const (
		k       = 4
		timeout = 400 * time.Millisecond
	)
	p := Problem{Src: vjob.NewConfiguration(), Target: map[string]vjob.State{}}
	var rules []PlacementRule
	var jobs []*vjob.VJob
	ev := Event{Kind: NodeUp}
	for i := 0; i < k; i++ {
		nodes, vms, js := overcommit(p, fmt.Sprintf("s%d", i), 2, 11)
		calls := 0 // one search per slice at a time: no lock
		rules = append(rules,
			Fence{VMs: vms, Nodes: nodes},
			searchHook{vms: vms, fn: func() {
				if calls++; calls%256 == 0 {
					time.Sleep(time.Millisecond)
				}
			}})
		jobs = append(jobs, js...)
		ev.Nodes = append(ev.Nodes, nodes[0])
	}
	a := &fakeManaged{fakeActuator: fakeActuator{cfg: p.Src}, poolSecs: 1}
	l := &Loop{
		Decision: decisionFunc(func(*vjob.Configuration, []*vjob.VJob) map[string]vjob.State {
			return p.Target
		}),
		EventDriven: true,
		Optimizer:   Optimizer{Partitions: k, Workers: 1, Timeout: timeout},
		Rules:       rules,
		Queue:       func() []*vjob.VJob { return jobs },
		Trace:       obs.NewTracer(64),
		Solver:      NewSolverTelemetry(0),
	}
	l.Notify(a, ev)
	start := time.Now()
	a.run(l.debounce()) // the wake-up alone: it hands its switch to the actuator
	took := time.Since(start)

	if l.Stats.SliceSolves != k || l.Stats.FullSolves != 0 || len(a.executed) != 1 {
		t.Fatalf("not one batch of %d slices: stats=%+v switches=%d", k, l.Stats, len(a.executed))
	}
	// Each slice is reported once, span and report alike, with the wall
	// time of its own search — which its share of the timeout cut short.
	spans, reports := spansByKind(l.Trace.Recent(0)), l.Solver.Snapshot().Recent
	if len(spans["solve"]) != k || len(reports) != k || len(spans["merge"]) != 1 {
		t.Fatalf("%d solve spans, %d reports, %d merge spans, want %d, %d, 1",
			len(spans["solve"]), len(reports), len(spans["merge"]), k, k)
	}
	width := min(k, runtime.GOMAXPROCS(0))
	share := timeout.Seconds() * min(1, float64(width)/k)
	for i, sp := range spans["solve"] {
		if w := sp.WallSeconds; w != reports[i].WallSeconds || w <= 0 || w < share/2 || w > took.Seconds() {
			t.Fatalf("slice %d: span says %.3fs, report %.3fs; want one search of at least %.3fs inside a wake-up of %v",
				i, w, reports[i].WallSeconds, share/2, took)
		}
	}
	t.Logf("wake-up took %v", took)
	if took >= 2*timeout {
		t.Fatalf("wake-up with %d dirty slices took %v under a %v Timeout: one budget per slice, not per batch", k, took, timeout)
	}
}
