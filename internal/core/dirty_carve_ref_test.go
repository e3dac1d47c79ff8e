package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"cwcs/internal/vjob"
)

// refDirtySlices is the carve of Loop.solveDirtySlices as it ran before
// a wake materialized only the slices it touches: the full Split, then
// touchesSets over every slice. It is kept verbatim but for its
// signature (the loop's Partitioner as a parameter, the slices to solve
// returned beside the coverage) as the reference
// TestMaterializedSlicesMatchReference holds Partitioner.dirtySlices to.
func refDirtySlices(pt Partitioner, p Problem, dirtyNodes, dirtyVMs, coverNodes, coverVMs map[string]bool) ([]Problem, *sliceResult, error) {
	parts, err := pt.Split(p)
	if err != nil || len(parts) < 2 {
		return nil, nil, errMonolithic
	}
	out := &sliceResult{nodes: map[string]bool{}, vms: map[string]bool{}}
	var dirty []Problem
	for _, sub := range parts {
		if !touchesSets(sub.Src, dirtyNodes, dirtyVMs) {
			continue
		}
		// A satisfied slice needs no plan — its optimal plan is empty
		// — so the event storm of harmless load changes costs nothing.
		if !sub.Satisfied() {
			dirty = append(dirty, sub)
		} else if !touchesSets(sub.Src, coverNodes, coverVMs) {
			continue
		}
		for _, n := range sub.Src.Nodes() {
			out.nodes[n.Name] = true
		}
		for _, v := range sub.Src.VMs() {
			out.vms[v.Name] = true
		}
	}
	if len(out.nodes)+len(out.vms) == 0 {
		return nil, nil, errNothingDirty
	}
	return dirty, out, nil
}

// touchesSets reports whether the slice holds any dirty node or VM.
func touchesSets(sub *vjob.Configuration, nodes, vms map[string]bool) bool {
	for n := range nodes {
		if sub.Node(n) != nil {
			return true
		}
	}
	for v := range vms {
		if sub.VM(v) != nil {
			return true
		}
	}
	return false
}

// dirtyDraw picks a random subset of p's nodes and of its VMs, each
// name with probability 1/every, and sometimes a name p does not know;
// nil sets one time in four.
func dirtyDraw(rng *rand.Rand, p Problem, every int) (nodes, vms map[string]bool) {
	if rng.Intn(4) == 0 {
		return nil, nil
	}
	nodes, vms = map[string]bool{}, map[string]bool{}
	for _, n := range p.Src.Nodes() {
		if rng.Intn(every) == 0 {
			nodes[n.Name] = true
		}
	}
	for _, v := range p.Src.VMs() {
		if rng.Intn(every) == 0 {
			vms[v.Name] = true
		}
	}
	if rng.Intn(6) == 0 {
		nodes["ghost-node"], vms["ghost-vm"] = true, true
	}
	return nodes, vms
}

// dirtyAgree fails unless dirtySlices, filling gout, and refDirtySlices
// agree on p and the sets: the same error, the same slices to solve
// (each the same configuration, target map and rescoped rules) and the
// same coverage. It reports how many slices both would solve and
// whether the coverage holds more than they do.
func dirtyAgree(t *testing.T, pt Partitioner, p Problem, dirtyNodes, dirtyVMs, coverNodes, coverVMs map[string]bool, gout *sliceResult) (solved int, covers bool) {
	t.Helper()
	got, gerr := pt.dirtySlices(p, dirtyNodes, dirtyVMs, coverNodes, coverVMs, gout)
	want, wout, werr := refDirtySlices(pt, p, dirtyNodes, dirtyVMs, coverNodes, coverVMs)
	if !errors.Is(gerr, werr) {
		t.Fatalf("%+v dirty %v %v: error %v, reference %v", pt, dirtyNodes, dirtyVMs, gerr, werr)
	}
	if why := sameSlices(got, want); why != "" {
		t.Fatalf("%+v dirty %v %v: %s", pt, dirtyNodes, dirtyVMs, why)
	}
	if gerr != nil {
		return 0, false
	}
	if !maps.Equal(gout.nodes, wout.nodes) || !maps.Equal(gout.vms, wout.vms) {
		t.Fatalf("%+v dirty %v %v: coverage %v %v, reference %v %v", pt, dirtyNodes, dirtyVMs, gout.nodes, gout.vms, wout.nodes, wout.vms)
	}
	inSolved := 0
	for _, sub := range got {
		inSolved += sub.Src.NumNodes()
	}
	return len(got), len(gout.nodes) > inSolved
}

// TestMaterializedSlicesMatchReference holds the carve of a wake, which
// materializes only the slices holding a dirty element, to the full
// Split filtered slice by slice: 600 random problems under four
// partition counts, random slice caps and random dirty and cover sets,
// then the three 1000-node solve_sliced instances under sparse dirty
// sets. One sliceResult, as a Loop holds, takes every draw's coverage,
// so a map the last draw filled must read as a fresh one.
func TestMaterializedSlicesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	wakes, solving, covering := 0, 0, 0
	var cover sliceResult
	for inst := 0; inst < 600; inst++ {
		p := splitProblem(t, rng)
		for _, parts := range []int{0, 1, 2, 3, 5} {
			dirtyNodes, dirtyVMs := dirtyDraw(rng, p, 3)
			coverNodes, coverVMs := dirtyDraw(rng, p, 2)
			solved, covers := dirtyAgree(t, Partitioner{Parts: parts, maxNodes: 2 + rng.Intn(7)}, p, dirtyNodes, dirtyVMs, coverNodes, coverVMs, &cover)
			wakes++
			if solved > 0 {
				solving++
			}
			if covers {
				covering++
			}
		}
	}
	t.Logf("%d of %d carves solve a slice, %d cover a satisfied one", solving, wakes, covering)
	if solving < wakes/4 || covering < wakes/20 {
		t.Fatalf("%d of %d carves solve a slice, %d cover a satisfied one: the draws no longer exercise the filter", solving, wakes, covering)
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := budgetedProblem(seed, 1000, 150)
		for range 3 {
			dirtyNodes, dirtyVMs := dirtyDraw(rng, p, 200)
			if solved, _ := dirtyAgree(t, Partitioner{}, p, dirtyNodes, dirtyVMs, nil, nil, &cover); solved == 0 && len(dirtyNodes)+len(dirtyVMs) > 2 {
				t.Fatalf("1000-node instance %d: no slice to solve for %d dirty names", seed, len(dirtyNodes)+len(dirtyVMs))
			}
		}
	}
}

// TestSatisfiedMatchesSlice holds the verdict a wake reads off the
// parent problem to the materialized slice's Satisfied, bin by bin: 600
// splitProblem draws (rules of all five kinds, ghost scope names,
// over-committed nodes, mixed targets) under four partition counts,
// each with its drawn targets and settled (no target, so the loads and
// the rules decide), then the three 1000-node solve_sliced instances
// with rules of every kind over random VMs and nodes. Loads, rules and
// states must each be the one check failing some bins, so a verdict
// that skips any of them is caught.
func TestSatisfiedMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var cv carver
	var bins, sat, byLoad, byRule, byState int
	check := func(pt Partitioner, p Problem) {
		t.Helper()
		for _, p := range []Problem{p, {Src: p.Src, Rules: p.Rules}} {
			if !pt.carve(p, &cv) {
				continue
			}
			for bi := range cv.bins {
				sub, err := cv.slice(p, bi)
				if err != nil {
					t.Fatal(err)
				}
				want := sub.Satisfied()
				if got := cv.satisfied(p, bi); got != want {
					t.Fatalf("%+v bin %d of %d: satisfied %v, slice %v", pt, bi, len(cv.bins), got, want)
				}
				loads, rules, states := sub.Src.Viable(), rulesHold(sub.Rules, sub.Src), true
				for _, v := range sub.Src.VMs() {
					if cur := sub.Src.StateOf(v.Name); sub.wantOf(v, cur) != cur {
						states = false
					}
				}
				bins++
				switch {
				case want:
					sat++
				case !loads && rules && states:
					byLoad++
				case loads && !rules && states:
					byRule++
				case loads && rules && !states:
					byState++
				}
			}
		}
	}
	for range 600 {
		p := splitProblem(t, rng)
		for _, parts := range []int{0, 2, 3, 5} {
			check(Partitioner{Parts: parts, maxNodes: 2 + rng.Intn(7)}, p)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := budgetedProblem(seed, 1000, 150)
		vms, nodes := p.Src.VMs(), p.Src.Nodes()
		vm := func() string { return vms[rng.Intn(len(vms))].Name }
		node := func() string { return nodes[rng.Intn(len(nodes))].Name }
		for k := range 40 {
			var r PlacementRule
			switch k % 5 {
			case 0:
				r = Spread{VMs: []string{vm(), vm(), "ghost-vm"}}
			case 1:
				r = Gather{VMs: []string{vm(), vm()}}
			case 2:
				r = Fence{VMs: []string{vm()}, Nodes: []string{node(), node(), "ghost-node"}}
			case 3:
				r = Ban{VMs: []string{vm()}, Nodes: []string{node()}}
			default:
				r = Drained{Nodes: []string{node()}}
			}
			p.Rules = append(p.Rules, r)
		}
		check(Partitioner{}, p)
	}
	t.Logf("%d bins: %d satisfied, %d failing on loads alone, %d on rules alone, %d on states alone", bins, sat, byLoad, byRule, byState)
	if min(sat, byLoad, byRule, byState) < bins/50 {
		t.Fatalf("%d bins: %d satisfied, %d failing on loads alone, %d on rules alone, %d on states alone: the draws no longer exercise every check", bins, sat, byLoad, byRule, byState)
	}
}

// TestConcurrentCarvesMatchSerial: three goroutines carve (Split and a
// wake's dirtySlices) and solve sliced at once, taking and releasing
// idle scratches in whatever order they meet, and each of their
// results equals what the same call returned run alone.
func TestConcurrentCarvesMatchSerial(t *testing.T) {
	type call struct {
		p            Problem
		nodes, vms   map[string]bool
		split, dirty []Problem
		cover        *sliceResult
		solved       *Result
		err          string // of the carves, or of the solve: the draws may have no solution
	}
	rng := rand.New(rand.NewSource(7))
	var calls []*call
	for seed := int64(1); seed <= 3; seed++ {
		p := budgetedProblem(seed, 48+16*int(seed), 100)
		nodes, vms := dirtyDraw(rand.New(rand.NewSource(seed)), p, 8)
		calls = append(calls, &call{p: p, nodes: nodes, vms: vms})
	}
	for range 3 {
		p := splitProblem(t, rng)
		nodes, vms := dirtyDraw(rng, p, 3)
		calls = append(calls, &call{p: p, nodes: nodes, vms: vms})
	}
	opt := Optimizer{Workers: 1}
	run := func(c *call) (r call) {
		var err error
		if r.split, err = (Partitioner{}).Split(c.p); err == nil {
			r.cover = new(sliceResult)
			r.dirty, err = Partitioner{}.dirtySlices(c.p, c.nodes, c.vms, nil, nil, r.cover)
			if err == nil || errors.Is(err, errMonolithic) || errors.Is(err, errNothingDirty) {
				r.solved, err = opt.Solve(c.p)
			}
		}
		r.err = fmt.Sprint(err)
		return r
	}
	solved := 0
	for _, c := range calls {
		r := run(c)
		c.split, c.dirty, c.cover, c.solved, c.err = r.split, r.dirty, r.cover, r.solved, r.err
		if c.solved != nil {
			solved++
		}
	}
	if solved < 4 {
		t.Fatalf("%d of %d calls solve", solved, len(calls))
	}
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 12 {
				c := calls[(k+2*g)%len(calls)]
				r := run(c)
				why := ""
				switch {
				case r.err != c.err:
					why = fmt.Sprintf("error %s, alone %s", r.err, c.err)
				case sameSlices(r.split, c.split) != "":
					why = "Split: " + sameSlices(r.split, c.split)
				case sameSlices(r.dirty, c.dirty) != "":
					why = "dirty slices: " + sameSlices(r.dirty, c.dirty)
				case (r.cover == nil) != (c.cover == nil) || r.cover != nil && (!maps.Equal(r.cover.nodes, c.cover.nodes) || !maps.Equal(r.cover.vms, c.cover.vms)):
					why = fmt.Sprintf("coverage %v, alone %v", r.cover, c.cover)
				case c.solved != nil:
					why = sameResult(r.solved, c.solved)
				}
				if why != "" {
					t.Errorf("goroutine %d, call %d: %s", g, k, why)
					return
				}
			}
		}()
	}
	wg.Wait()
}
