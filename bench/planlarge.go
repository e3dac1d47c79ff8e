package main

import (
	"errors"
	"fmt"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/packing"
	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// planWorkload is plan_large: no search at all. One operation packs a
// generated cluster with First-Fit-Decrease, builds the plan from the
// source to that destination (core.FFDPlan), validates it pool by pool
// and replays it. FFD ignores where VMs are, so nearly every VM moves:
// the plan layer's worst case.
type planWorkload struct {
	nodes     int
	instances int // planned in one round
	warm      int // reference instances planned in set-up
	floor     time.Duration
	seed      int64

	// the last round's
	probs   []core.Problem
	results []*core.Result
}

func newPlanWorkload(smoke bool) *planWorkload {
	w := &planWorkload{nodes: 500, instances: 8, warm: 9, floor: warmFloor(smoke)}
	if smoke {
		w.nodes, w.instances, w.warm = 48, 4, 1
	}
	return w
}

// op is the timed operation. The layer spans split it on the traced
// round only by calling the same functions core.FFDPlan calls.
func (w *planWorkload) op(p core.Problem, tr *tracer) (*core.Result, error) {
	end := tr.begin("core.ffd_plan")
	res, err := core.FFDPlan(p)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("plan.validate")
	err = res.Plan.Validate()
	end()
	return res, err
}

func (w *planWorkload) setup(seed int64) error {
	w.seed = seed
	ref := make([]core.Problem, w.warm)
	for i := range ref {
		ref[i] = consolidation(instanceSeed(refSeed, i), w.nodes, nil)
	}
	return warmUp(w.floor, len(ref), func(i int) error {
		_, err := w.op(ref[i], nil)
		return err
	})
}

func (w *planWorkload) round(index int, tr *tracer) (round, error) {
	r := round{counts: map[string]float64{}}
	w.probs = make([]core.Problem, w.instances)
	for i := range w.probs {
		w.probs[i] = consolidation(instanceSeed(w.seed, index*w.instances+i), w.nodes, nil)
	}
	w.results = make([]*core.Result, len(w.probs))
	for i, prob := range w.probs {
		tr.nextOp()
		var err error
		took, alloc := measure(func() { w.results[i], err = w.op(prob, tr) })
		if err != nil {
			return r, fmt.Errorf("plan_large: instance %d: %w", i, err)
		}
		r.add(took, alloc)
	}
	for i, res := range w.results {
		if why := verifyPlan(res); why != nil {
			r.fail(fmt.Errorf("instance %d: %w", i, why))
		}
		r.counts["actions"] += float64(res.Plan.NumActions())
		r.counts["pools"] += float64(len(res.Plan.Pools))
		r.counts["plan_cost"] += float64(res.Cost)
	}
	return r, nil
}

// verifyPlan checks that a plan replays to its stated, viable
// destination (the operation itself validated it).
func verifyPlan(res *core.Result) error {
	end, err := res.Plan.Result()
	if err != nil {
		return fmt.Errorf("plan does not apply: %w", err)
	}
	if !end.Equal(res.Dst) {
		return errors.New("plan does not reach the destination")
	}
	if !res.Dst.Viable() {
		return errors.New("destination is not viable")
	}
	return nil
}

// layers splits the operation into the plan layer's steps on the first
// few instances, and probes the vjob and packing calls those steps lean
// on.
func (w *planWorkload) layers(tr *tracer, traced round, m map[string]float64) error {
	for i, p := range w.probs[:min(8, len(w.probs))] {
		end := tr.begin("plan.graph")
		g, err := plan.BuildGraph(p.Src, w.results[i].Dst)
		end()
		if err != nil {
			return err
		}
		end = tr.begin("plan.build")
		_, err = plan.Builder{}.Plan(g)
		end()
		if err != nil {
			return err
		}
	}
	m["plan.graph_ms"] = median(millis(tr.durations("plan.graph")))
	m["plan.build_ms"] = median(millis(tr.durations("plan.build")))
	m["plan.validate_ms"] = median(millis(tr.durations("plan.validate")))
	m["plan.actions_per_s"] = traced.counts["actions"] / traced.wall.Seconds()
	m["plan.pools_per_plan"] = traced.counts["pools"] / float64(len(w.probs))
	m["core.ffd_seed_ms"] = median(millis(tr.durations("core.ffd_plan")))

	for i := 0; i < 5; i++ {
		consolidation(refSeed, w.nodes, tr)
	}
	m["workload.generate_ms"] = median(millis(tr.durations("workload.generate")))
	m["sched.decide_ms"] = median(millis(tr.durations("sched.decide")))
	vjobProbes(tr, w.results[0].Dst, m)

	// packing: the destination's running VMs onto the empty cluster
	dst := w.results[0].Dst
	for i := 0; i < 5; i++ {
		scratch := vjob.NewConfiguration()
		for _, n := range dst.Nodes() {
			scratch.AddNode(n)
		}
		runners := dst.InState(vjob.Running)
		for _, v := range runners {
			scratch.AddVM(v)
		}
		end := tr.begin("packing.ffd")
		err := packing.FirstFitDecrease(scratch, runners)
		end()
		if err != nil {
			return err
		}
	}
	m["packing.ffd_ms"] = median(millis(tr.durations("packing.ffd")))
	return nil
}

// vjobProbes times the configuration calls everything above vjob makes
// most: a clone, a viability audit, and the running-on lookup.
func vjobProbes(tr *tracer, cfg *vjob.Configuration, m map[string]float64) {
	nodes := cfg.Nodes()
	for i := 0; i < 20; i++ {
		end := tr.begin("vjob.clone")
		cfg.Clone()
		end()
		end = tr.begin("vjob.violations")
		cfg.Violations()
		end()
		end = tr.begin("vjob.running_on")
		for _, n := range nodes {
			cfg.RunningOn(n.Name)
		}
		end()
	}
	m["vjob.clone_ms"] = median(millis(tr.durations("vjob.clone")))
	m["vjob.violations_ms"] = median(millis(tr.durations("vjob.violations")))
	m["vjob.running_on_us"] = median(millis(tr.durations("vjob.running_on"))) * 1000 / float64(len(nodes))
}
