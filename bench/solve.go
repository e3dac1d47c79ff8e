package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/cp"
	"cwcs/internal/plan"
	"cwcs/internal/sched"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// safetyCap is the wall-clock limit handed to every optimizer. It must
// never fire: the node budget ends each solve long before. An
// operation that takes half of it counts as failed.
const safetyCap = 60 * time.Second

// refSeed generates the warm-up inputs. They are the same on every
// run, so the warm-up is the same work whatever --seed says.
const refSeed = 0x5eed

// instanceSeed derives the seed of the i-th input of a run, so that two
// runs with different --seed share no input. Round r of a workload
// with n inputs per round uses inputs r*n to r*n+n-1.
func instanceSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// solveWorkload is solve_mono and solve_sliced: Optimizer.Solve on
// generated consolidation problems under a search-node budget.
type solveWorkload struct {
	name       string
	nodes      int   // cluster size; 1.5 VMs per node
	instances  int   // solved in one round
	warm       int   // reference instances solved in set-up
	budget     int64 // search nodes per model
	partitions int   // 1: one model; 0: one model per ~16 nodes
	// ffdFor is how many instances get a core.FFDPlan baseline. On
	// 1000 nodes a baseline costs several operations, so the sliced
	// workload compares only its first few instances, and only on the
	// traced run.
	ffdFor int
	floor  time.Duration // least warm-up time
	seed   int64

	// the last round's
	probs   []core.Problem
	ffd     []int // FFD plan cost, ffdFor entries
	results []*core.Result
}

func newSolveWorkload(name string, smoke bool) *solveWorkload {
	w := &solveWorkload{name: name}
	switch name {
	case "solve_mono":
		*w = solveWorkload{name: name, nodes: 100, instances: 5, warm: 6, budget: 300, partitions: 1, ffdFor: 5}
		if smoke {
			w.nodes, w.instances, w.warm, w.budget, w.ffdFor = 30, 4, 1, 60, 4
		}
	case "solve_sliced":
		*w = solveWorkload{name: name, nodes: 1000, instances: 6, warm: 5, budget: 150, partitions: 0, ffdFor: 3}
		if smoke {
			w.nodes, w.instances, w.warm, w.budget, w.ffdFor = 64, 4, 1, 40, 4
		}
	}
	w.floor = warmFloor(smoke)
	return w
}

func (w *solveWorkload) optimizer() core.Optimizer {
	return core.Optimizer{Partitions: w.partitions, Workers: 1, Timeout: safetyCap}
}

// consolidation generates one reconfiguration problem: a random
// cluster in the paper's §5.1 mix (2 CPUs and 4 GiB per node, 1.5 VMs
// per node, vjobs running, sleeping or waiting) and the states
// sched.Consolidation asks for.
func consolidation(seed int64, nodes int, tr *tracer) core.Problem {
	end := tr.begin("workload.generate")
	g := workload.GenerateConfiguration(rand.New(rand.NewSource(seed)), workload.GenerateOptions{
		Nodes: nodes, NodeCPU: 2, NodeMemory: 4096, VMs: nodes * 3 / 2,
	})
	end()
	end = tr.begin("sched.decide")
	target := sched.Consolidation{}.Decide(g.Cfg, g.Jobs)
	end()
	return core.Problem{Src: g.Cfg, Target: target}
}

// problem is a consolidation problem with one node budget per VM.
func (w *solveWorkload) problem(seed int64, tr *tracer) core.Problem {
	p := consolidation(seed, w.nodes, tr)
	p.Rules = budgetRules(p.Src, w.budget)
	return p
}

// generate makes n problems, the first from instanceSeed(seed, first),
// and for one-model solves their FFD baselines, which verify needs.
func (w *solveWorkload) generate(seed int64, first, n int) error {
	w.probs = make([]core.Problem, n)
	for i := range w.probs {
		w.probs[i] = w.problem(instanceSeed(seed, first+i), nil)
	}
	w.ffd = nil
	if w.partitions == 1 {
		return w.baselines(nil)
	}
	return nil
}

func (w *solveWorkload) setup(seed int64) error {
	w.seed = seed
	if err := w.generate(refSeed, 0, w.warm); err != nil {
		return err
	}
	ref := w.probs
	return warmUp(w.floor, len(ref), func(i int) error {
		_, err := w.optimizer().Solve(ref[i])
		return err
	})
}

// baselines plans the first ffdFor instances with core.FFDPlan, the
// heuristic the paper's Figure 10 compares against.
func (w *solveWorkload) baselines(tr *tracer) error {
	w.ffd = make([]int, min(w.ffdFor, len(w.probs)))
	for i := range w.ffd {
		end := tr.begin("core.ffd_plan")
		base, err := core.FFDPlan(core.Problem{Src: w.probs[i].Src, Target: w.probs[i].Target})
		end()
		if err != nil {
			return fmt.Errorf("%s: FFD baseline of instance %d: %w", w.name, i, err)
		}
		w.ffd[i] = base.Cost
	}
	return nil
}

func (w *solveWorkload) round(index int, tr *tracer) (round, error) {
	r := round{counts: map[string]float64{}}
	if err := w.generate(w.seed, index*w.instances, w.instances); err != nil {
		return r, err
	}
	w.results = make([]*core.Result, len(w.probs))
	opt := w.optimizer()
	for i, p := range w.probs {
		tr.nextOp()
		var err error
		took, alloc := measure(func() {
			defer tr.begin("core.solve")()
			w.results[i], err = opt.Solve(p)
		})
		if err != nil {
			return r, fmt.Errorf("%s: instance %d: %w", w.name, i, err)
		}
		r.add(took, alloc)
	}
	for i, res := range w.results {
		if why := w.verify(i, res, r.ops[i]); why != nil {
			r.fail(fmt.Errorf("instance %d: %w", i, why))
		}
		r.counts["nodes_searched"] += float64(res.Nodes)
		r.counts["solutions"] += float64(res.Solutions)
		r.counts["plan_cost"] += float64(res.Cost)
	}
	return r, nil
}

// verify checks one solve's output: the plan is feasible pool by pool,
// reaches the stated destination, the destination is viable, the cost
// is the plan's, the search stopped on its node budget or on a proof,
// and the safety cap was nowhere near.
func (w *solveWorkload) verify(i int, res *core.Result, took time.Duration) error {
	if err := res.Plan.Validate(); err != nil {
		return fmt.Errorf("plan does not validate: %w", err)
	}
	if err := verifyPlan(res); err != nil {
		return err
	}
	if res.Cost != res.Plan.Cost() {
		return fmt.Errorf("cost %d is not the plan's %d", res.Cost, res.Plan.Cost())
	}
	// One model starts from the FFD plan and can only improve on it.
	// Slices start from their own FFD plans, whose merge is not the
	// cluster's FFD plan, so there the ratio is a result, not a check.
	if w.partitions == 1 && res.Cost > w.ffd[i] {
		return fmt.Errorf("cost %d above FFD's %d", res.Cost, w.ffd[i])
	}
	if w.partitions != 1 && res.Partitions < 2 {
		return errors.New("the solve fell back to one model")
	}
	// A model stops at its budget, or one node later when the node that
	// spends the budget is a leaf: a leaf assigns nothing, so no
	// propagator runs until the next restart's first branch.
	models := int64(max(res.Partitions, 1))
	if res.Nodes > (w.budget+1)*models || (!res.Optimal && models == 1 && res.Nodes < w.budget) {
		return fmt.Errorf("searched %d nodes in %d models under a budget of %d", res.Nodes, models, w.budget)
	}
	if took > safetyCap/2 {
		return fmt.Errorf("took %v, within 2x of the %v safety cap", took, safetyCap)
	}
	return nil
}

// layers fills the cp and core metrics from the traced round and from
// probes on the first instance.
func (w *solveWorkload) layers(tr *tracer, traced round, m map[string]float64) error {
	p := w.probs[0]
	m["core.solve_ms"] = median(millis(tr.durations("core.solve")))
	m["core.nodes_searched"] = traced.counts["nodes_searched"]
	m["core.solutions_per_solve"] = traced.counts["solutions"] / float64(len(w.probs))

	w.problem(instanceSeed(refSeed, 0), tr)
	m["workload.generate_ms"] = median(millis(tr.durations("workload.generate")))
	m["sched.decide_ms"] = median(millis(tr.durations("sched.decide")))

	if err := w.baselines(tr); err != nil {
		return err
	}
	m["core.ffd_seed_ms"] = median(millis(tr.durations("core.ffd_plan")))
	cost, ffd := 0, 0
	for i, base := range w.ffd {
		cost += w.results[i].Cost
		ffd += base
	}
	m["core.cost_vs_ffd"] = float64(cost) / float64(ffd)

	if w.partitions == 1 {
		return cpProbe(tr, p.Src, w.budget, m)
	}
	end := tr.begin("core.split")
	parts, err := core.Partitioner{}.Split(p)
	end()
	if err != nil || len(parts) < 2 {
		return fmt.Errorf("%s: instance 0 does not split (%d parts, %v)", w.name, len(parts), err)
	}
	m["core.split_ms"] = median(millis(tr.durations("core.split")))
	if err := cpProbe(tr, parts[0].Src, w.budget, m); err != nil {
		return err
	}
	return w.sliceLayers(tr, p, parts, m)
}

// sliceLayers measures what a partitioned solve is made of besides the
// carve: every slice solved on its own, and the merge and repair of the
// slice plans. parallel_speedup compares the slices' summed time with
// the time of the partitioned solve of the same instance.
func (w *solveWorkload) sliceLayers(tr *tracer, p core.Problem, parts []core.Problem, m map[string]float64) error {
	opt := w.optimizer()
	opt.Partitions = 1
	plans := make([]*plan.Plan, len(parts))
	optimal := 0
	for i, sub := range parts {
		end := tr.begin("core.slice_solve")
		res, err := opt.Solve(sub)
		end()
		if err != nil {
			return fmt.Errorf("%s: slice %d: %w", w.name, i, err)
		}
		plans[i] = res.Plan
		if res.Optimal {
			optimal++
		}
	}
	slices := millis(tr.durations("core.slice_solve"))
	m["core.slice_solve_p50_ms"] = median(slices)
	m["core.slice_solve_max_ms"] = quantile(slices, 1)
	m["core.slices_optimal_ratio"] = float64(optimal) / float64(len(parts))
	m["core.parallel_speedup"] = sum(slices) / ms(tr.durations("core.solve")[0])

	end := tr.begin("plan.merge")
	merged, err := plan.Merge(p.Src, plans...)
	end()
	if err != nil {
		return err
	}
	m["plan.merge_ms"] = median(millis(tr.durations("plan.merge")))

	// Repair: the merged plan loses the actions of its first slice and
	// gets that slice's plan back as the fresh one.
	dirtyNodes, dirtyVMs := map[string]bool{}, map[string]bool{}
	for _, n := range parts[0].Src.Nodes() {
		dirtyNodes[n.Name] = true
	}
	for _, v := range parts[0].Src.VMs() {
		dirtyVMs[v.Name] = true
	}
	end = tr.begin("plan.repair")
	_, err = plan.Repair(p.Src, merged, dirtyNodes, dirtyVMs, plans[0])
	end()
	m["plan.repair_ms"] = median(millis(tr.durations("plan.repair")))
	return err
}

// cpProbe runs the bare solver on a packing-plus-objective model the
// size of one of the workload's models: the VMs of cfg (an instance or
// one of its slices) over its nodes, CPU and memory packing, and an
// objective bounded from below by the memory of every VM that can no
// longer stay where it runs. It stops at the node budget, like the
// workload's solves.
func cpProbe(tr *tracer, cfg *vjob.Configuration, budget int64, m map[string]float64) error {
	nodes, vms := cfg.Nodes(), cfg.VMs()
	values := make([]int, len(nodes))
	cpuCap, memCap := make([]int, len(nodes)), make([]int, len(nodes))
	at := map[string]int{}
	for j, n := range nodes {
		values[j], cpuCap[j], memCap[j] = j, n.CPU(), n.Memory()
		at[n.Name] = j
	}
	s := cp.NewSolver()
	vars := make([]*cp.IntVar, len(vms))
	cpu, mem, home := make([]int, len(vms)), make([]int, len(vms)), make([]int, len(vms))
	for i, v := range vms {
		vars[i] = s.NewEnumVar(v.Name, values)
		cpu[i], mem[i], home[i] = v.CPUDemand(), v.MemoryDemand(), -1
		if cfg.StateOf(v.Name) == vjob.Running {
			home[i] = at[cfg.HostOf(v.Name)]
			vars[i].SetPreferred(home[i])
		}
	}
	s.Post(&cp.Packing{Name: "cpu", Items: vars, Weights: cpu, Capacity: cpuCap})
	s.Post(&cp.Packing{Name: "memory", Items: vars, Weights: mem, Capacity: memCap})
	total := 0
	for _, x := range mem {
		total += x
	}
	obj := s.NewIntVar("cost", 0, total)
	// moving VM i anywhere but home costs its memory
	s.Post(&cp.FuncConstraint{On: vars, Run: func(s *cp.Solver) error {
		lb := 0
		for i, v := range vars {
			if home[i] < 0 || !v.Contains(home[i]) {
				lb += mem[i]
			}
		}
		return s.RemoveBelow(obj, lb)
	}})
	s.Post(&cp.FuncConstraint{On: vars, Run: func(s *cp.Solver) error {
		if n, _, _, _ := s.Stats(); n >= budget {
			return cp.ErrCanceled
		}
		return nil
	}})

	const reps = 200
	end := tr.begin("cp.snapshot")
	for i := 0; i < reps; i++ {
		s.RestoreState(s.SaveState())
	}
	end()
	m["cp.snapshot_us"] = ms(tr.durations("cp.snapshot")[0]) * 1000 / reps

	end = tr.begin("cp.search")
	_, err := s.Minimize(obj, cp.Options{Vars: vars, FirstFail: true, PreferValue: true})
	end()
	if err != nil && !cp.Stopped(err) {
		return fmt.Errorf("cp probe: %w", err)
	}
	n, fails, _, props := s.Stats()
	m["cp.nodes_per_s"] = float64(n) / tr.durations("cp.search")[0].Seconds()
	m["cp.fails_per_node"] = float64(fails) / float64(n)
	m["cp.propagations_per_node"] = float64(props) / float64(n)
	return nil
}
