package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cwcs/internal/cp"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

func mkCluster(nodes, cpu, mem int) *vjob.Configuration {
	c := vjob.NewConfiguration()
	for i := 0; i < nodes; i++ {
		c.AddNode(vjob.NewNode(fmt.Sprintf("n%02d", i), cpu, mem))
	}
	return c
}

func mustRun(t *testing.T, c *vjob.Configuration, vm, node string) {
	t.Helper()
	if err := c.SetRunning(vm, node); err != nil {
		t.Fatal(err)
	}
}

// TestStableConfigurationCostsNothing: when the current configuration
// already satisfies the targets, the optimal plan is empty.
func TestStableConfigurationCostsNothing(t *testing.T) {
	c := mkCluster(3, 2, 4096)
	j := vjob.NewVJob("j1", 0,
		vjob.NewVM("j1-1", "", 1, 1024),
		vjob.NewVM("j1-2", "", 1, 1024))
	for _, v := range j.VMs {
		c.AddVM(v)
	}
	mustRun(t, c, "j1-1", "n00")
	mustRun(t, c, "j1-2", "n01")

	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"j1": vjob.Running}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || res.Plan.NumActions() != 0 {
		t.Fatalf("cost=%d actions=%d, want empty plan:\n%s", res.Cost, res.Plan.NumActions(), res.Plan)
	}
	if !res.Optimal {
		t.Fatal("trivial problem not proven optimal")
	}
	if !res.Dst.Equal(c) {
		t.Fatal("destination differs from source")
	}
}

// TestOverloadFixedByMigration: a node hosting two busy VMs on one CPU
// must shed one; migrating the smaller VM is cheapest.
func TestOverloadFixedByMigration(t *testing.T) {
	c := mkCluster(2, 1, 8192)
	big := vjob.NewVM("big", "a", 1, 2048)
	small := vjob.NewVM("small", "b", 1, 512)
	c.AddVM(big)
	c.AddVM(small)
	mustRun(t, c, "big", "n00")
	mustRun(t, c, "small", "n00") // CPU overload on n00

	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{
		"a": vjob.Running, "b": vjob.Running,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dst.Viable() {
		t.Fatal("destination not viable")
	}
	if res.Cost != 512 {
		t.Fatalf("cost = %d, want 512 (migrate the small VM)\n%s", res.Cost, res.Plan)
	}
	if res.Dst.HostOf("big") != "n00" || res.Dst.HostOf("small") != "n01" {
		t.Fatalf("wrong move: big on %s, small on %s", res.Dst.HostOf("big"), res.Dst.HostOf("small"))
	}
}

// TestSuspendWritesImageLocally: a vjob sent to Sleeping suspends each
// VM to its current host, so future resumes can be local.
func TestSuspendWritesImageLocally(t *testing.T) {
	c := mkCluster(2, 2, 4096)
	j := vjob.NewVJob("j", 0, vjob.NewVM("j-1", "", 1, 1024), vjob.NewVM("j-2", "", 1, 512))
	for _, v := range j.VMs {
		c.AddVM(v)
	}
	mustRun(t, c, "j-1", "n00")
	mustRun(t, c, "j-2", "n01")

	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Sleeping}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dst.ImageHostOf("j-1") != "n00" || res.Dst.ImageHostOf("j-2") != "n01" {
		t.Fatal("suspend images not local")
	}
	// Two suspends in one pool: plan cost = 1024 + 512.
	if res.Cost != 1536 {
		t.Fatalf("cost = %d, want 1536\n%s", res.Cost, res.Plan)
	}
	if len(res.Plan.Pools) != 1 {
		t.Fatalf("suspends should share one pool:\n%s", res.Plan)
	}
}

// TestResumePrefersImageHost: resuming a sleeping vjob lands on the
// node holding the image (local resume, Dm) rather than elsewhere
// (2·Dm).
func TestResumePrefersImageHost(t *testing.T) {
	c := mkCluster(3, 2, 4096)
	v := vjob.NewVM("s-1", "s", 1, 2048)
	c.AddVM(v)
	if err := c.SetSleeping("s-1", "n02"); err != nil {
		t.Fatal(err)
	}
	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"s": vjob.Running}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dst.HostOf("s-1") != "n02" {
		t.Fatalf("resumed on %s, want local n02", res.Dst.HostOf("s-1"))
	}
	if res.Cost != 2048 {
		t.Fatalf("cost = %d, want 2048 (local resume)", res.Cost)
	}
}

// TestRemoteResumeWhenImageHostFull: when the image host has no room,
// the resume must go remote and cost 2·Dm.
func TestRemoteResumeWhenImageHostFull(t *testing.T) {
	c := mkCluster(2, 1, 4096)
	blocker := vjob.NewVM("blk", "keep", 1, 512)
	sleeper := vjob.NewVM("s-1", "s", 1, 1024)
	c.AddVM(blocker)
	c.AddVM(sleeper)
	mustRun(t, c, "blk", "n00")
	if err := c.SetSleeping("s-1", "n00"); err != nil {
		t.Fatal(err)
	}
	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"s": vjob.Running}})
	if err != nil {
		t.Fatal(err)
	}
	// Options: remote resume on n01 (2048) vs migrate blocker (512) +
	// local resume (1024) in two pools: 512 + (512+1024) = 2048. Both
	// cost 2048; accept either but insist on viability and cost.
	if !res.Dst.Viable() {
		t.Fatal("not viable")
	}
	if res.Cost > 2048 {
		t.Fatalf("cost = %d, want <= 2048\n%s", res.Cost, res.Plan)
	}
}

// TestStopActionsAreFree: terminating a vjob is a zero-cost plan.
func TestStopActionsAreFree(t *testing.T) {
	c := mkCluster(1, 2, 4096)
	j := vjob.NewVJob("j", 0, vjob.NewVM("j-1", "", 1, 2048))
	c.AddVM(j.VMs[0])
	mustRun(t, c, "j-1", "n00")
	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Terminated}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("cost = %d", res.Cost)
	}
	if res.Dst.VM("j-1") != nil {
		t.Fatal("VM not removed")
	}
}

// TestWaitingVJobStarts: a waiting vjob asked to run boots on any
// fitting nodes for free.
func TestWaitingVJobStarts(t *testing.T) {
	c := mkCluster(2, 1, 4096)
	j := vjob.NewVJob("j", 0, vjob.NewVM("j-1", "", 1, 1024), vjob.NewVM("j-2", "", 1, 1024))
	for _, v := range j.VMs {
		c.AddVM(v)
	}
	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("cost = %d, want 0 (runs are free)", res.Cost)
	}
	if res.Dst.StateOf("j-1") != vjob.Running || res.Dst.StateOf("j-2") != vjob.Running {
		t.Fatal("vjob not started")
	}
}

// TestNoViableConfiguration: demanding more CPUs than the cluster has
// must fail cleanly.
func TestNoViableConfiguration(t *testing.T) {
	c := mkCluster(1, 1, 4096)
	j := vjob.NewVJob("j", 0, vjob.NewVM("j-1", "", 1, 512), vjob.NewVM("j-2", "", 1, 512))
	for _, v := range j.VMs {
		c.AddVM(v)
	}
	_, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}})
	if !errors.Is(err, ErrNoViableConfiguration) {
		t.Fatalf("err = %v, want ErrNoViableConfiguration", err)
	}
}

// TestVMTooBigForAnyNode: static domain filtering catches it.
func TestVMTooBigForAnyNode(t *testing.T) {
	c := mkCluster(2, 1, 1024)
	c.AddVM(vjob.NewVM("huge", "j", 1, 9999))
	_, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}})
	if !errors.Is(err, ErrNoViableConfiguration) {
		t.Fatalf("err = %v", err)
	}
}

// TestInvalidTargetTransition: sleeping -> terminated skips the
// mandatory resume and must be rejected.
func TestInvalidTargetTransition(t *testing.T) {
	c := mkCluster(1, 1, 1024)
	c.AddVM(vjob.NewVM("s", "j", 1, 512))
	if err := c.SetSleeping("s", "n00"); err != nil {
		t.Fatal(err)
	}
	_, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Terminated}})
	if err == nil {
		t.Fatal("invalid transition accepted")
	}
}

// TestSleepTargetCoercedForWaitingVM: a waiting VM of a vjob sent to
// Sleeping stays waiting instead of failing the whole reconfiguration.
func TestSleepTargetCoercedForWaitingVM(t *testing.T) {
	c := mkCluster(2, 1, 4096)
	j := vjob.NewVJob("j", 0, vjob.NewVM("j-1", "", 1, 512), vjob.NewVM("j-2", "", 1, 512))
	for _, v := range j.VMs {
		c.AddVM(v)
	}
	mustRun(t, c, "j-1", "n00") // j-2 never placed: mixed state
	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Sleeping}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dst.StateOf("j-1") != vjob.Sleeping {
		t.Fatal("running VM not suspended")
	}
	if res.Dst.StateOf("j-2") != vjob.Waiting {
		t.Fatal("waiting VM should stay waiting")
	}
}

// TestKeepVMState: vjobs absent from Target keep their state, but
// their running VMs may still migrate to enable the requested changes.
func TestKeepVMState(t *testing.T) {
	c := mkCluster(2, 1, 4096)
	keeper := vjob.NewVM("keep-1", "keep", 1, 512)
	starter := vjob.NewVM("new-1", "new", 1, 4096)
	c.AddVM(keeper)
	c.AddVM(starter)
	mustRun(t, c, "keep-1", "n00")
	// new-1 needs a whole node's memory: only n01 or n00-after-eviction
	// works. keep stays running either way.
	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"new": vjob.Running}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dst.StateOf("keep-1") != vjob.Running {
		t.Fatal("keepVMState violated")
	}
	if res.Dst.StateOf("new-1") != vjob.Running {
		t.Fatal("target not reached")
	}
	if !res.Dst.Viable() {
		t.Fatal("not viable")
	}
}

// TestEntropyBeatsOrMatchesFFD is the heart of Figure 10: on random
// reconfigurations the CP plan never costs more than the FFD plan.
func TestEntropyBeatsOrMatchesFFD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 3 + rng.Intn(5)
		c := mkCluster(nNodes, 2, 4096)
		nJobs := 1 + rng.Intn(4)
		target := map[string]vjob.State{}
		for j := 0; j < nJobs; j++ {
			name := fmt.Sprintf("j%d", j)
			nvm := 1 + rng.Intn(3)
			vms := make([]*vjob.VM, nvm)
			for k := range vms {
				vms[k] = vjob.NewVM(fmt.Sprintf("%s-%d", name, k), name, rng.Intn(2), 256*(1+rng.Intn(8)))
				c.AddVM(vms[k])
			}
			vjob.NewVJob(name, j, vms...)
			// Place running or sleeping at random but viable.
			for _, v := range vms {
				placed := false
				if rng.Intn(3) > 0 {
					for _, n := range c.Nodes() {
						if c.Fits(v, n.Name) {
							if err := c.SetRunning(v.Name, n.Name); err == nil {
								placed = true
							}
							break
						}
					}
				}
				if !placed && rng.Intn(2) == 0 {
					_ = c.SetSleeping(v.Name, c.Nodes()[rng.Intn(nNodes)].Name)
				}
			}
			st := c.VJobState(vjob.NewVJob(name, j, vms...))
			switch rng.Intn(3) {
			case 0:
				target[name] = vjob.Running
			case 1:
				if st == vjob.Running {
					target[name] = vjob.Sleeping
				}
			}
		}
		p := Problem{Src: c, Target: target}
		ffd, ferr := FFDPlan(p)
		ent, eerr := Optimizer{Timeout: 2 * time.Second}.Solve(p)
		if ferr != nil || eerr != nil {
			// Either may fail on infeasible targets; both failing or
			// either failing is acceptable for this property.
			return true
		}
		if ent.Cost > ffd.Cost {
			t.Logf("seed %d: entropy %d > ffd %d", seed, ent.Cost, ffd.Cost)
			return false
		}
		return ent.Plan.Validate() == nil && ffd.Plan.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAblationsStillSolve: each worker of a four-wide portfolio — the
// paper's search and three shuffles of it — finds the optimum on its
// own (they only search differently).
func TestAblationsStillSolve(t *testing.T) {
	c := mkCluster(3, 2, 4096)
	for j := 0; j < 3; j++ {
		name := fmt.Sprintf("j%d", j)
		v := vjob.NewVM(name+"-1", name, 1, 1024)
		c.AddVM(v)
		mustRun(t, c, v.Name, fmt.Sprintf("n%02d", j))
	}
	p := Problem{Src: c, Target: map[string]vjob.State{"j0": vjob.Running, "j1": vjob.Running, "j2": vjob.Running}}
	comp, err := Optimizer{}.compile(p, new(compiled))
	if err != nil {
		t.Fatal(err)
	}
	for k := range 4 {
		ctx, cancel := context.WithCancel(context.Background())
		sh := &portfolioState{bound: cp.NewIncumbent(comp.maxObj), start: time.Now(), cancel: cancel}
		Optimizer{}.runPortfolioWorker(ctx, p, comp, k, sh, new(scratch))
		cancel()
		if sh.err != nil || sh.best == nil {
			t.Fatalf("worker %d: best = %v, err = %v", k, sh.best, sh.err)
		}
		if sh.best.Cost != 0 {
			t.Fatalf("worker %d: cost = %d, want 0", k, sh.best.Cost)
		}
	}
}

// TestFFDPlanValid: the baseline produces validated plans too.
func TestFFDPlanValid(t *testing.T) {
	c := mkCluster(3, 2, 4096)
	for j := 0; j < 4; j++ {
		v := vjob.NewVM(fmt.Sprintf("v%d", j), fmt.Sprintf("j%d", j), 1, 1024)
		c.AddVM(v)
		mustRun(t, c, v.Name, fmt.Sprintf("n%02d", j%3))
	}
	res, err := FFDPlan(Problem{Src: c, Target: map[string]vjob.State{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, res.Plan)
	}
	if !res.Dst.Viable() {
		t.Fatal("FFD destination not viable")
	}
}

// TestFFDPlanInfeasible: FFD fails cleanly when VMs cannot fit.
func TestFFDPlanInfeasible(t *testing.T) {
	c := mkCluster(1, 1, 1024)
	c.AddVM(vjob.NewVM("a", "j", 1, 512))
	c.AddVM(vjob.NewVM("b", "j", 1, 512))
	_, err := FFDPlan(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}})
	if !errors.Is(err, ErrNoViableConfiguration) {
		t.Fatalf("err = %v", err)
	}
}

// TestOptimizerProducesValidatedPlan: every emitted plan passes the
// replay validator.
func TestOptimizerProducesValidatedPlan(t *testing.T) {
	c := mkCluster(3, 1, 3072)
	a := vjob.NewVM("a-1", "a", 1, 2048)
	b := vjob.NewVM("b-1", "b", 1, 2048)
	c.AddVM(a)
	c.AddVM(b)
	mustRun(t, c, "a-1", "n00")
	mustRun(t, c, "b-1", "n01")
	// Ask for a third vjob that forces rearrangement.
	d := vjob.NewVM("d-1", "d", 1, 3072)
	c.AddVM(d)
	res, err := Optimizer{}.Solve(Problem{Src: c, Target: map[string]vjob.State{"d": vjob.Running}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, res.Plan)
	}
	got, err := res.Plan.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(res.Dst) {
		t.Fatal("plan does not realize Dst")
	}
}

// TestTimeoutFallsBackToHeuristic: with an elapsed deadline the CP
// search cannot run, but the optimizer still returns the FFD-seeded
// incumbent, so callers always get a workable plan when one exists.
func TestTimeoutFallsBackToHeuristic(t *testing.T) {
	c := mkCluster(2, 1, 4096)
	// A sleeping VM: any plan costs at least one resume (>0), so the
	// expired deadline cannot prove optimality.
	c.AddVM(vjob.NewVM("v", "j", 1, 512))
	if err := c.SetSleeping("v", "n01"); err != nil {
		t.Fatal(err)
	}
	o := Optimizer{Timeout: -time.Second}
	res, err := o.Solve(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if res.Dst.StateOf("v") != vjob.Running || !res.Dst.Viable() {
		t.Fatal("fallback result unusable")
	}
	if res.Optimal {
		t.Fatal("timed-out search must not claim optimality")
	}
}

// TestTimeoutWithNoSolutionAtAll: when even the heuristic cannot place
// the VMs, the expired deadline surfaces as ErrNoViableConfiguration.
func TestTimeoutWithNoSolutionAtAll(t *testing.T) {
	c := mkCluster(1, 1, 4096)
	c.AddVM(vjob.NewVM("a", "j", 1, 512))
	c.AddVM(vjob.NewVM("b", "j", 1, 512))
	o := Optimizer{Timeout: -time.Second}
	_, err := o.Solve(Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}})
	if !errors.Is(err, ErrNoViableConfiguration) {
		t.Fatalf("err = %v", err)
	}
}

// overcommittedProblem is portfolioProblem's harder sibling: size nodes
// and size vjobs, running VMs placed memory-first-fit so CPU
// over-commits and the search has hundreds of nodes and several
// improvements to go through before its proof.
func overcommittedProblem(seed int64, size int) Problem {
	p := Problem{Src: vjob.NewConfiguration(), Target: map[string]vjob.State{}}
	overcommit(p, "", seed, size)
	return p
}

// overcommit adds one overcommittedProblem to p under a name prefix and
// returns its nodes, VMs and vjobs.
func overcommit(p Problem, prefix string, seed int64, size int) (nodes, vms []string, jobs []*vjob.VJob) {
	rng := rand.New(rand.NewSource(seed))
	c := p.Src
	for i := 0; i < size; i++ {
		nodes = append(nodes, fmt.Sprintf("%sn%02d", prefix, i))
		c.AddNode(vjob.NewNode(nodes[i], 2, 4096))
	}
	for j := 0; j < size; j++ {
		name := fmt.Sprintf("%sj%d", prefix, j)
		job := make([]*vjob.VM, 1+rng.Intn(3))
		for k := range job {
			job[k] = vjob.NewVM(fmt.Sprintf("%s-%d", name, k), name, rng.Intn(2), 256*(1+rng.Intn(8)))
			c.AddVM(job[k])
			vms = append(vms, job[k].Name)
		}
		jobs = append(jobs, vjob.NewVJob(name, j, job...))
		for _, v := range job {
			if rng.Intn(3) > 0 {
				for _, n := range nodes {
					if c.Free(n).Get(resources.Memory) >= v.MemoryDemand() {
						_ = c.SetRunning(v.Name, n)
						break
					}
				}
			}
		}
		p.Target[name] = vjob.Running
	}
	return nodes, vms, jobs
}

// TestOneWorkerSearchPinned pins the search Optimizer{Workers: 1} runs
// on seeded instances that finish by proof. The numbers were captured
// at the last commit that had a separate sequential branch-and-bound
// (80bef1f), so the test passing says a lineup of one still explores
// the same tree, improves the incumbent as often and stops on the same
// proof. The instances are too small to partition, so Partitions 0 and
// 1 must agree.
func TestOneWorkerSearchPinned(t *testing.T) {
	spread := []PlacementRule{Spread{VMs: []string{"j0-0", "j1-0"}}}
	small := func(seed int64, rules []PlacementRule) Problem {
		p := portfolioProblem(seed)
		p.Rules = rules
		return p
	}
	for _, tc := range []struct {
		name         string
		p            Problem
		cost         int
		nodes, fails int64
		winner       string
		improvements int
	}{
		{"seed0", small(0, nil), 0, 0, 0, "ffd-seed", 0},
		{"seed1", small(1, nil), 0, 8, 0, "base", 1},
		{"seed4", small(4, nil), 0, 9, 0, "base", 1},
		{"seed5", small(5, nil), 0, 18, 1, "base", 1},
		{"seed7", small(7, nil), 0, 15, 2, "base", 2},
		{"seed9", small(9, nil), 0, 10, 1, "base", 2},
		{"seed11", small(11, nil), 0, 14, 2, "base", 2},
		{"seed0/spread", small(0, spread), 0, 7, 0, "base", 2},
		{"seed2/spread", small(2, spread), 256, 3, 0, "base", 1},
		{"seed4/spread", small(4, spread), 512, 12, 0, "base", 2},
		{"seed5/spread", small(5, spread), 0, 18, 2, "base", 1},
		{"seed7/spread", small(7, spread), 1280, 15, 2, "base", 2},
		{"seed8/spread", small(8, spread), 0, 0, 0, "ffd-seed", 0},
		{"overcommitted6/seed1", overcommittedProblem(1, 6), 768, 455, 766, "base", 5},
		{"overcommitted8/seed1", overcommittedProblem(1, 8), 768, 1027, 1746, "base", 9},
		{"overcommitted8/seed3", overcommittedProblem(3, 8), 0, 159, 15, "base", 11},
	} {
		for _, parts := range []int{1, 0} {
			res, err := Optimizer{Workers: 1, Partitions: parts}.Solve(tc.p)
			if err != nil {
				t.Fatalf("%s partitions=%d: %v", tc.name, parts, err)
			}
			if !res.Optimal {
				t.Fatalf("%s partitions=%d: no budget, yet no proof", tc.name, parts)
			}
			if res.Cost != tc.cost || res.Nodes != tc.nodes || res.Fails != tc.fails ||
				res.Winner != tc.winner || len(res.Trajectory) != tc.improvements {
				t.Fatalf("%s partitions=%d: cost=%d nodes=%d fails=%d winner=%q improvements=%d, pinned %d/%d/%d/%q/%d",
					tc.name, parts, res.Cost, res.Nodes, res.Fails, res.Winner, len(res.Trajectory),
					tc.cost, tc.nodes, tc.fails, tc.winner, tc.improvements)
			}
			want := WorkerOutcome{Strategy: "base", Nodes: tc.nodes, Backtracks: tc.fails, Improvements: tc.improvements}
			if len(res.Outcomes) != 1 || res.Outcomes[0] != want {
				t.Fatalf("%s partitions=%d: outcomes = %+v, want one %+v", tc.name, parts, res.Outcomes, want)
			}
		}
	}
}

// TestOptimizerPlansSeedsWithItsBuilder: every candidate the optimizer
// returns is planned by Optimizer.Builder, the FFD seed included. Two
// VMs sit on n02 and n03 of a cluster whose NICs admit one migration
// at a time; FFD packs both onto n00, so the transfer-gating builder
// serializes the two migrations into n00 while the transfer-blind one
// runs them in one pool. The search is canceled before it starts, so
// the blind optimizer can only return the FFD seed — planned blind.
func TestOptimizerPlansSeedsWithItsBuilder(t *testing.T) {
	c := vjob.NewConfiguration()
	for i := 0; i < 4; i++ {
		capacity := resources.New(2, 4096)
		capacity.Set(resources.NetBW, plan.MigrateRateMbps+200)
		c.AddNode(vjob.NewNodeRes(fmt.Sprintf("n%02d", i), capacity))
	}
	j := vjob.NewVJob("j", 0, vjob.NewVM("v1", "j", 1, 1024), vjob.NewVM("v2", "j", 1, 1024))
	for i, v := range j.VMs {
		c.AddVM(v)
		mustRun(t, c, v.Name, fmt.Sprintf("n%02d", i+2))
	}
	p := Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}}
	blind := plan.Builder{DisableTransferGating: true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Optimizer{Partitions: 1, Workers: 1, Builder: blind}.SolveContext(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := plan.BuildGraph(p.Src, res.Dst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := blind.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := plan.Builder{}.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(gated.Pools) == len(want.Pools) {
		t.Fatalf("instance does not separate the builders: %d pools either way", len(want.Pools))
	}
	if len(res.Plan.Pools) != len(want.Pools) || res.Cost != want.Cost() {
		t.Fatalf("returned plan has %d pools at cost %d; the blind builder plans its destination in %d pools at cost %d",
			len(res.Plan.Pools), res.Cost, len(want.Pools), want.Cost())
	}
}
