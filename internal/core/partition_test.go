package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cwcs/internal/resources"
	"cwcs/internal/sched"
	"cwcs/internal/vjob"
)

// splitOrFatal splits the problem and asserts the decomposition is a
// disjoint exact cover of the cluster.
func splitOrFatal(t *testing.T, pt Partitioner, p Problem) []Problem {
	t.Helper()
	parts, err := pt.Split(p)
	if err != nil {
		t.Fatal(err)
	}
	seenNodes := map[string]bool{}
	seenVMs := map[string]bool{}
	for _, sub := range parts {
		for _, n := range sub.Src.Nodes() {
			if seenNodes[n.Name] {
				t.Fatalf("node %s in two partitions", n.Name)
			}
			seenNodes[n.Name] = true
		}
		for _, v := range sub.Src.VMs() {
			if seenVMs[v.Name] {
				t.Fatalf("VM %s in two partitions", v.Name)
			}
			seenVMs[v.Name] = true
		}
	}
	if len(parts) > 0 {
		if len(seenNodes) != p.Src.NumNodes() || len(seenVMs) != p.Src.NumVMs() {
			t.Fatalf("cover: %d/%d nodes, %d/%d VMs",
				len(seenNodes), p.Src.NumNodes(), len(seenVMs), p.Src.NumVMs())
		}
	}
	return parts
}

// partitionProblem builds a 6-node cluster with three independent
// 2-node islands, each hosting one 2-VM vjob.
func partitionProblem(t *testing.T) Problem {
	t.Helper()
	c := mkCluster(6, 2, 4096)
	target := map[string]vjob.State{}
	for i := 0; i < 3; i++ {
		j := vjob.NewVJob(fmt.Sprintf("j%d", i), i,
			vjob.NewVM(fmt.Sprintf("j%d-1", i), "", 1, 1024),
			vjob.NewVM(fmt.Sprintf("j%d-2", i), "", 1, 1024))
		for k, v := range j.VMs {
			c.AddVM(v)
			mustRun(t, c, v.Name, fmt.Sprintf("n%02d", 2*i+k))
		}
		target[j.Name] = vjob.Running
	}
	return Problem{Src: c, Target: target}
}

func TestSplitRespectsRequestedCount(t *testing.T) {
	p := partitionProblem(t)
	for _, want := range []int{2, 3} {
		parts := splitOrFatal(t, Partitioner{Parts: want}, p)
		if len(parts) != want {
			t.Fatalf("Parts=%d gave %d partitions", want, len(parts))
		}
	}
	// More partitions than nodes: gang links are soft, so the split
	// bottoms out at the hard atoms (here: one per node) and never
	// exceeds the node count.
	parts := splitOrFatal(t, Partitioner{Parts: 64}, p)
	if len(parts) == 0 || len(parts) > p.Src.NumNodes() {
		t.Fatalf("Parts=64 gave %d partitions for %d nodes", len(parts), p.Src.NumNodes())
	}
	// Parts=1 and small auto mode stay monolithic.
	if parts := splitOrFatal(t, Partitioner{Parts: 1}, p); parts != nil {
		t.Fatalf("Parts=1 split anyway: %d", len(parts))
	}
	if parts := splitOrFatal(t, Partitioner{}, p); parts != nil {
		t.Fatalf("auto split a 6-node cluster: %d", len(parts))
	}
}

func TestSplitKeepsVJobsTogether(t *testing.T) {
	p := partitionProblem(t)
	for _, sub := range splitOrFatal(t, Partitioner{Parts: 3}, p) {
		byJob := map[string]int{}
		for _, v := range sub.Src.VMs() {
			byJob[v.VJob]++
		}
		for job, n := range byJob {
			if n != 2 {
				t.Fatalf("vjob %s split across partitions (%d of 2 VMs)", job, n)
			}
		}
	}
}

func TestSplitKeepsRuleScopesTogether(t *testing.T) {
	p := partitionProblem(t)
	// A spread across two different vjobs is a HARD binding: its
	// covered VMs (and their hosts) must share a partition even when
	// the slice cap cuts their gangs.
	p.Rules = []PlacementRule{Spread{VMs: []string{"j0-1", "j1-1"}}}
	for _, parts := range []int{2, 3, 6} {
		for _, sub := range splitOrFatal(t, Partitioner{Parts: parts}, p) {
			if (sub.Src.VM("j0-1") != nil) != (sub.Src.VM("j1-1") != nil) {
				t.Fatalf("Parts=%d: spread scope split across partitions", parts)
			}
			if sub.Src.VM("j0-1") != nil && len(sub.Rules) == 0 {
				t.Fatalf("Parts=%d: spread dropped from its partition", parts)
			}
		}
	}
}

// TestSplitCutsOversizedGangs: a single vjob scattered across the
// whole cluster would weld every node into one component; the slice cap
// cuts its gang links so the split still happens, while each VM stays
// with its current host.
func TestSplitCutsOversizedGangs(t *testing.T) {
	c := mkCluster(8, 2, 4096)
	vms := make([]*vjob.VM, 8)
	for i := range vms {
		vms[i] = vjob.NewVM(fmt.Sprintf("g-%d", i), "", 1, 1024)
	}
	j := vjob.NewVJob("g", 0, vms...)
	for i, v := range j.VMs {
		c.AddVM(v)
		mustRun(t, c, v.Name, fmt.Sprintf("n%02d", i))
	}
	p := Problem{Src: c, Target: map[string]vjob.State{"g": vjob.Running}}
	parts := splitOrFatal(t, Partitioner{Parts: 4}, p)
	if len(parts) < 2 {
		t.Fatalf("oversized gang not cut: %d partitions", len(parts))
	}
	for _, sub := range parts {
		for _, v := range sub.Src.VMs() {
			if sub.Src.HostOf(v.Name) == "" {
				t.Fatalf("%s separated from its host", v.Name)
			}
		}
	}
}

func TestSplitBindsFenceNodes(t *testing.T) {
	p := partitionProblem(t)
	// Fence j0 onto the far island's nodes: those nodes must ride with
	// j0's VMs.
	p.Rules = []PlacementRule{Fence{VMs: []string{"j0-1", "j0-2"}, Nodes: []string{"n04", "n05"}}}
	parts := splitOrFatal(t, Partitioner{Parts: 3}, p)
	for _, sub := range parts {
		if sub.Src.VM("j0-1") == nil {
			continue
		}
		if sub.Src.Node("n04") == nil || sub.Src.Node("n05") == nil {
			t.Fatal("fence nodes not bound to the covered VMs' partition")
		}
		if len(sub.Rules) == 0 {
			t.Fatal("fence dropped from its partition")
		}
	}
}

func TestSplitSeamsMixOverloadWithHeadroom(t *testing.T) {
	// Two overloaded single-node atoms and two empty nodes: each
	// partition must pair one overloaded node with one empty node, or
	// the overload cannot be shed.
	c := mkCluster(4, 1, 4096)
	target := map[string]vjob.State{}
	for i := 0; i < 2; i++ {
		j := vjob.NewVJob(fmt.Sprintf("j%d", i), i,
			vjob.NewVM(fmt.Sprintf("j%d-1", i), "", 1, 1024),
			vjob.NewVM(fmt.Sprintf("j%d-2", i), "", 1, 1024))
		for _, v := range j.VMs {
			c.AddVM(v)
			mustRun(t, c, v.Name, fmt.Sprintf("n%02d", i)) // both on one node
		}
		target[j.Name] = vjob.Running
	}
	p := Problem{Src: c, Target: target}
	parts := splitOrFatal(t, Partitioner{Parts: 2}, p)
	if len(parts) != 2 {
		t.Fatalf("got %d partitions", len(parts))
	}
	for i, sub := range parts {
		capCPU, dem := 0, 0
		for _, n := range sub.Src.Nodes() {
			capCPU += n.CPU()
		}
		for _, v := range sub.Src.VMs() {
			dem += v.CPUDemand()
		}
		if dem > capCPU {
			t.Fatalf("partition %d not packable: demand %d > capacity %d", i, dem, capCPU)
		}
	}
}

// randomProblem builds a small random instance: n nodes, a few vjobs in
// mixed states, and a consolidation-style target.
func randomProblem(t *testing.T, rng *rand.Rand) Problem {
	t.Helper()
	nodes := 2 + rng.Intn(7) // 2..8
	c := mkCluster(nodes, 2, 4096)
	var jobs []*vjob.VJob
	for i := 0; i < 1+rng.Intn(4); i++ {
		nvms := 1 + rng.Intn(3)
		vms := make([]*vjob.VM, nvms)
		for k := range vms {
			vms[k] = vjob.NewVM(fmt.Sprintf("j%d-%d", i, k), "", rng.Intn(2), 512+512*rng.Intn(3))
		}
		j := vjob.NewVJob(fmt.Sprintf("j%d", i), i, vms...)
		for _, v := range j.VMs {
			c.AddVM(v)
		}
		switch rng.Intn(3) {
		case 0: // running, memory-first-fit (CPU may over-commit)
			for _, v := range j.VMs {
				for _, n := range c.Nodes() {
					if c.Free(n.Name).Get(resources.Memory) >= v.MemoryDemand() {
						mustRun(t, c, v.Name, n.Name)
						break
					}
				}
			}
		case 1: // sleeping on a random node
			for _, v := range j.VMs {
				node := fmt.Sprintf("n%02d", rng.Intn(nodes))
				if err := c.SetSleeping(v.Name, node); err != nil {
					t.Fatal(err)
				}
			}
		}
		jobs = append(jobs, j)
	}
	return Problem{Src: c, Target: sched.Consolidation{}.Decide(c, jobs)}
}

// TestPartitionOracle is the partition-count-independence oracle: on
// small random instances the partitioned solve must stay viable and
// rule-clean for every partition count, and can never beat the
// monolithic optimum.
func TestPartitionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for inst := 0; inst < 15; inst++ {
		p := randomProblem(t, rng)
		mono, err := Optimizer{Workers: 1, Partitions: 1}.Solve(p)
		if err != nil {
			continue // infeasible instance: nothing to compare
		}
		for _, parts := range []int{1, 2, 4} {
			res, err := Optimizer{Workers: 1, Partitions: parts}.Solve(p)
			if err != nil {
				t.Fatalf("inst %d parts %d: %v\n%s", inst, parts, err, p.Src)
			}
			if !res.Dst.Viable() {
				t.Fatalf("inst %d parts %d: non-viable destination:\n%s", inst, parts, res.Dst)
			}
			if err := res.Plan.Validate(); err != nil {
				t.Fatalf("inst %d parts %d: invalid plan: %v", inst, parts, err)
			}
			got, err := res.Plan.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(res.Dst) {
				t.Fatalf("inst %d parts %d: plan result differs from Dst", inst, parts)
			}
			if res.Cost < mono.Cost {
				t.Fatalf("inst %d parts %d: cost %d beats monolithic optimum %d",
					inst, parts, res.Cost, mono.Cost)
			}
			if parts == 1 && res.Cost != mono.Cost {
				t.Fatalf("inst %d: Partitions=1 cost %d != monolithic %d", inst, res.Cost, mono.Cost)
			}
		}
	}
}

// TestPartitionOracleConcurrent repeats a slice of the oracle with a
// portfolio inside each partition, exercising the concurrent path under
// the race detector.
func TestPartitionOracleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for inst := 0; inst < 5; inst++ {
		p := randomProblem(t, rng)
		if _, err := (Optimizer{Workers: 1, Partitions: 1}).Solve(p); err != nil {
			continue
		}
		res, err := Optimizer{Workers: 4, Partitions: 2}.Solve(p)
		if err != nil {
			t.Fatalf("inst %d: %v", inst, err)
		}
		if !res.Dst.Viable() || res.Plan.Validate() != nil {
			t.Fatalf("inst %d: concurrent partitioned solve broke viability", inst)
		}
	}
}

// TestPartitionedSolveFailsOnInfeasibleSlice hand-builds a
// decomposition with an unsolvable slice: solveSlices must fail the
// whole set on it, still handing back the slice that did solve: the
// partner solvePartitioned rejoins the failed slice with (SolveContext
// falls back to the monolithic model only when that pair fails too).
func TestPartitionedSolveFailsOnInfeasibleSlice(t *testing.T) {
	// A VM sleeping on a storage-only node: isolated, its slice has no
	// CPU to resume on, while the full cluster does.
	c := vjob.NewConfiguration()
	c.AddNode(vjob.NewNode("big0", 2, 8192))
	c.AddNode(vjob.NewNode("store", 0, 0))
	v := vjob.NewVM("sleeper", "js", 1, 1024)
	c.AddVM(v)
	if err := c.SetSleeping("sleeper", "store"); err != nil {
		t.Fatal(err)
	}
	p := Problem{Src: c, Target: map[string]vjob.State{"js": vjob.Running}}

	subA, err := c.Extract([]string{"store"}, []string{"sleeper"})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := c.Extract([]string{"big0"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts := []Problem{
		{Src: subA, Target: p.Target},
		{Src: subB, Target: map[string]vjob.State{}},
	}
	o := Optimizer{Workers: 1}
	results, err := o.solveSlices(context.Background(), parts)
	if !errors.Is(err, ErrNoViableConfiguration) {
		t.Fatalf("infeasible slice not reported: %v", err)
	}
	if len(results) != 2 || results[0] != nil || results[1] == nil {
		t.Fatalf("results = %v, want only the second slice solved", results)
	}
	// The public entry point still solves the problem (monolithic, or a
	// repaired decomposition that pairs the storage node with CPU).
	res, err := (Optimizer{Workers: 1, Partitions: 2}).Solve(p)
	if err != nil {
		t.Fatalf("solve failed despite feasible cluster: %v", err)
	}
	if res.Dst.StateOf("sleeper") != vjob.Running {
		t.Fatalf("sleeper not resumed:\n%s", res.Dst)
	}
}

// TestPartitionedSolveRejoinsFailedSlice rebuilds the two solve_sliced
// instances (seed 2 instance 104, seed 3 instance 197) on which one
// slice has no plan — 61 nodes, 171 runners and 84 % CPU, and 25
// nodes, 66 runners and 82 % CPU: FFD packs nothing there, and 150
// search nodes reach no leaf. That slice must
// rejoin its roomiest neighbour instead of sending the whole cluster to
// one model: the solve stays partitioned, its plan validates, and no
// model searched past its budget.
func TestPartitionedSolveRejoinsFailedSlice(t *testing.T) {
	for _, seed := range []int64{2_000_110, 3_000_206} {
		p := budgetedProblem(seed, 1000, 150)
		res, err := Optimizer{Workers: 1}.Solve(p)
		if err != nil {
			t.Fatalf("instance %d: %v", seed, err)
		}
		if res.Partitions < 2 {
			t.Fatalf("instance %d fell back to one model", seed)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("instance %d: %v", seed, err)
		}
		if res.Nodes > 151*int64(res.Partitions) {
			t.Fatalf("instance %d: %d nodes searched in %d models under a budget of 150", seed, res.Nodes, res.Partitions)
		}
	}
}

// TestSlicePoolMatchesSliceBySlice: solveSlices' pool builds slice
// after slice in one worker's storage, yet hands every slice of a
// batch the destination, cost, search nodes and fails the slice gets
// solved alone in fresh storage, whatever the pool's width.
func TestSlicePoolMatchesSliceBySlice(t *testing.T) {
	o := Optimizer{Workers: 1}
	ctx := context.Background()
	for _, nodes := range []int{256, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			p := budgetedProblem(seed, nodes, 150)
			parts, err := Partitioner{}.Split(p)
			if err != nil || len(parts) < 2 {
				t.Fatalf("%d nodes, seed %d: %d slices, %v", nodes, seed, len(parts), err)
			}
			pooled, poolErr := o.solveSlices(ctx, parts)
			solved := 0
			for i, sub := range parts {
				alone, err := o.solveMonolithic(ctx, sub, 1, new(scratch))
				got := pooled[i]
				switch {
				case (alone == nil) != (got == nil):
					t.Fatalf("%d nodes, seed %d, slice %d: solved pooled %t (%v), alone %t (%v)", nodes, seed, i, got != nil, poolErr, alone != nil, err)
				case alone == nil:
					continue
				case !got.Dst.Equal(alone.Dst) || got.Cost != alone.Cost || got.Nodes != alone.Nodes || got.Fails != alone.Fails:
					t.Fatalf("%d nodes, seed %d, slice %d: pooled cost %d, %d nodes, %d fails; alone %d, %d, %d; same destination %t",
						nodes, seed, i, got.Cost, got.Nodes, got.Fails, alone.Cost, alone.Nodes, alone.Fails, got.Dst.Equal(alone.Dst))
				}
				solved++
			}
			if solved < len(parts)-1 {
				t.Fatalf("%d nodes, seed %d: %d of %d slices solved", nodes, seed, solved, len(parts))
			}
		}
	}
}
