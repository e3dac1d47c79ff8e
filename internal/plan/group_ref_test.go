package plan_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/sched"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// The functions below are the resume-grouping pass as it was before a
// move was checked on its target pool alone: a copy of the whole plan
// and a full re-validation per vjob. They are kept verbatim as the
// reference groupVJobResumes must match.

func refGroupVJobResumes(p *plan.Plan) {
	var jobs []string
	lastPool := make(map[string]int)
	count := make(map[string]int)
	for i, pool := range p.Pools {
		for _, a := range pool {
			if r, ok := a.(*plan.Resume); ok && r.Machine.VJob != "" {
				if count[r.Machine.VJob] == 0 {
					jobs = append(jobs, r.Machine.VJob)
				}
				lastPool[r.Machine.VJob] = i
				count[r.Machine.VJob]++
			}
		}
	}
	for _, job := range jobs {
		if count[job] < 2 {
			continue
		}
		moved := refTryMoveResumes(p, job, lastPool[job])
		if moved != nil && moved.Validate() == nil {
			p.Pools = moved.Pools
		}
	}
	// Drop pools emptied by the moves.
	pools := p.Pools[:0]
	for _, pool := range p.Pools {
		if len(pool) > 0 {
			pools = append(pools, pool)
		}
	}
	p.Pools = pools
}

func refTryMoveResumes(p *plan.Plan, job string, target int) *plan.Plan {
	out := &plan.Plan{Src: p.Src, Bypass: p.Bypass}
	out.Pools = make([]plan.Pool, len(p.Pools))
	changed := false
	var grouped plan.Pool
	for i, pool := range p.Pools {
		for _, a := range pool {
			if r, ok := a.(*plan.Resume); ok && r.Machine.VJob == job && i != target {
				grouped = append(grouped, a)
				changed = true
				continue
			}
			out.Pools[i] = append(out.Pools[i], a)
		}
	}
	if !changed {
		return nil
	}
	out.Pools[target] = append(out.Pools[target], grouped...)
	out.Pools[target].SortDeterministic()
	return out
}

// generatedPair is a consolidation instance of the 2-D, 4-D or
// NIC-poor mix on the given number of nodes, or on 4 to 43 when it is
// 0, and the destination the FFD baseline packs for it. On the NIC-poor
// mix a quarter of the nodes carry one resume at a time, so admission
// refuses some moves.
func generatedPair(rng *rand.Rand, mix, nodes int) (src, dst *vjob.Configuration, ok bool) {
	if nodes == 0 {
		nodes = 4 + rng.Intn(40)
	}
	opts := workload.GenerateOptions{Nodes: nodes, NodeCPU: 2, NodeMemory: 4096, VMs: nodes * 3 / 2}
	switch mix % 3 {
	case 1:
		opts.NodeNet, opts.NodeDisk = 1000, 400
		opts.NetFraction, opts.DiskFraction = 0.3, 0.3
	case 2:
		opts.NodeNet, opts.NICPoorNet, opts.NICPoorFraction = 1000, 100, 0.25
		opts.NetFraction = 0.3
	}
	g := workload.GenerateConfiguration(rng, opts)
	res, err := core.FFDPlan(core.Problem{Src: g.Cfg, Target: sched.Consolidation{}.Decide(g.Cfg, g.Jobs)})
	if err != nil {
		return nil, nil, false
	}
	return g.Cfg, res.Dst, true
}

// storePair is the shape of TestGroupingOrderIsDeterministic, drawn at
// random: the images of several vjobs sit on one or two store nodes
// whose NICs carry only a few resume transfers at once, and each vjob
// resumes onto hosts partly held by running blockers that suspend.
func storePair(rng *rand.Rand) (src, dst *vjob.Configuration) {
	src = vjob.NewConfiguration()
	stores := 1 + rng.Intn(2)
	for s := 0; s < stores; s++ {
		c := resources.New(0, 0)
		c.Set(resources.NetBW, (1+rng.Intn(4))*plan.ResumePushRateMbps)
		src.AddNode(vjob.NewNodeRes(fmt.Sprintf("store%d", s), c))
	}
	hosts := 2 + rng.Intn(4)
	for h := 0; h < hosts; h++ {
		c := resources.New(2+rng.Intn(3), 2048*(1+rng.Intn(2)))
		c.Set(resources.NetBW, []int{1000, 1000, 100}[rng.Intn(3)])
		src.AddNode(vjob.NewNodeRes(fmt.Sprintf("d%d", h), c))
	}
	dst = src.Clone()
	var wake []*vjob.VM
	for j := 0; j < 2+rng.Intn(4); j++ {
		job := fmt.Sprintf("j%d", j)
		blocker := vjob.NewVM(job+"-blocker", "", 1, 512*(1+rng.Intn(2)))
		host := fmt.Sprintf("d%d", rng.Intn(hosts))
		src.AddVM(blocker)
		dst.AddVM(blocker)
		_ = src.SetRunning(blocker.Name, host)
		if rng.Intn(4) > 0 {
			_ = dst.SetSleeping(blocker.Name, host)
		} else {
			_ = dst.SetRunning(blocker.Name, host)
		}
		for k := 0; k < 2+rng.Intn(3); k++ {
			v := vjob.NewVM(fmt.Sprintf("%s-%d", job, k), job, 1, 256*(1+rng.Intn(4)))
			store := fmt.Sprintf("store%d", rng.Intn(stores))
			src.AddVM(v)
			dst.AddVM(v)
			_ = src.SetSleeping(v.Name, store)
			_ = dst.SetSleeping(v.Name, store)
			wake = append(wake, v)
		}
	}
	// Resume what fits, each VM on a random host with room.
	for _, v := range wake {
		for _, off := range rng.Perm(hosts) {
			if h := fmt.Sprintf("d%d", off); dst.Fits(v, h) {
				_ = dst.SetRunning(v.Name, h)
				break
			}
		}
	}
	return src, dst
}

// squeezePair is a source whose small nodes are overloaded, and a
// destination that empties them, then resumes vjobs and boots fillers
// on them up to the source's overload again. With loosePlan, a resume
// moved later can find its node refilled, or freed by the move of
// another vjob's resume.
func squeezePair(rng *rand.Rand) (src, dst *vjob.Configuration) {
	src = vjob.NewConfiguration()
	small := 1 + rng.Intn(3)
	for i := 0; i < small; i++ {
		src.AddNode(vjob.NewNode(fmt.Sprintf("s%d", i), 2, 4096))
	}
	src.AddNode(vjob.NewNode("big", 64, 1<<20))
	dst = src.Clone()
	add := func(name, job string) *vjob.VM {
		v := vjob.NewVM(name, job, 1, 256)
		src.AddVM(v)
		dst.AddVM(v)
		return v
	}
	// Each small node runs three or four one-CPU VMs on two CPUs, which
	// all leave; slots counts what it may run again at the end.
	slots := make([]int, small)
	for i := range slots {
		slots[i] = 3 + rng.Intn(2)
		for k := 0; k < slots[i]; k++ {
			v := add(fmt.Sprintf("old%d-%d", i, k), "")
			_ = src.SetRunning(v.Name, fmt.Sprintf("s%d", i))
			_ = dst.SetRunning(v.Name, "big")
		}
	}
	for j := 0; j < 2+rng.Intn(3); j++ {
		job := fmt.Sprintf("j%d", j)
		for k := 0; k < 2+rng.Intn(2); k++ {
			v := add(fmt.Sprintf("%s-%d", job, k), job)
			_ = src.SetSleeping(v.Name, "big")
			on := "big"
			if i := rng.Intn(small); slots[i] > 0 && rng.Intn(3) > 0 {
				on = fmt.Sprintf("s%d", i)
				slots[i]--
			}
			_ = dst.SetRunning(v.Name, on)
		}
	}
	for i := range slots {
		for k := rng.Intn(slots[i] + 1); k > 0; k-- {
			v := add(fmt.Sprintf("fill%d-%d", i, k), "")
			_ = dst.SetRunning(v.Name, fmt.Sprintf("s%d", i))
		}
	}
	return src, dst
}

// refillPlan is a valid plan the builder would not emit: each small
// node, overloaded in the source, sheds all but one of its VMs, then
// takes one resume of up to two vjobs at once, back up to the source's
// overload, and sheds its last VM in a later pool; the other resume of
// each vjob lands on a big node in a random later pool. Moving one
// vjob's resume then frees room the next vjob's move needs.
func refillPlan(rng *rand.Rand) *plan.Plan {
	src := vjob.NewConfiguration()
	src.AddNode(vjob.NewNode("big", 64, 1<<20))
	small := 1 + rng.Intn(2)
	pools := make([]plan.Pool, 3+rng.Intn(4))
	later := func() int { return 2 + rng.Intn(len(pools)-2) }
	add := func(a plan.Action, pool int) { pools[pool] = append(pools[pool], a) }
	for i := 0; i < small; i++ {
		node := fmt.Sprintf("s%d", i)
		src.AddNode(vjob.NewNode(node, 2, 4096))
		for k := 0; k < 3; k++ {
			v := vjob.NewVM(fmt.Sprintf("old%d-%d", i, k), "", 1, 256)
			src.AddVM(v)
			_ = src.SetRunning(v.Name, node)
			pool := 0
			if k == 2 {
				pool = later()
			}
			add(&plan.Migration{Machine: v, Src: node, Dst: "big"}, pool)
		}
	}
	room := make([]int, small)
	for _, job := range rng.Perm(2 * small) {
		name := fmt.Sprintf("j%d", job)
		i := rng.Intn(small)
		if room[i] == 2 {
			continue
		}
		room[i]++
		for k, on := range []string{fmt.Sprintf("s%d", i), "big"} {
			v := vjob.NewVM(fmt.Sprintf("%s-%d", name, k), name, 1, 256)
			src.AddVM(v)
			_ = src.SetSleeping(v.Name, "big")
			pool := 1
			if k == 1 {
				pool = later()
			}
			add(&plan.Resume{Machine: v, From: "big", On: on}, pool)
		}
	}
	for _, pool := range pools {
		pool.SortDeterministic()
	}
	return &plan.Plan{Src: src, Pools: pools}
}

// loosePlan builds a random plan Validate accepts but the builder would
// never emit: each pool takes a random share of the remaining actions
// that are feasible one by one at its start, without reserving, so the
// actions of one pool may jointly refill a node up to an overload the
// source already had. It returns nil when it gets stuck.
func loosePlan(rng *rand.Rand, g *plan.Graph) *plan.Plan {
	p := &plan.Plan{Src: g.Src}
	remaining := slices.Clone(g.Actions)
	rng.Shuffle(len(remaining), func(i, j int) { remaining[i], remaining[j] = remaining[j], remaining[i] })
	share := 2 + rng.Intn(3)
	for tries := 0; len(remaining) > 0; tries++ {
		if tries == 64 {
			return nil
		}
		cur, err := p.Result()
		if err != nil {
			return nil
		}
		var pool plan.Pool
		var rest []plan.Action
		for _, a := range remaining {
			if rng.Intn(share) > 0 && a.FeasibleIn(cur) {
				pool = append(pool, a)
			} else {
				rest = append(rest, a)
			}
		}
		if len(pool) == 0 {
			continue
		}
		pool.SortDeterministic()
		next := &plan.Plan{Src: g.Src, Pools: append(slices.Clone(p.Pools), pool)}
		if next.Validate() == nil {
			p, remaining = next, rest
		}
	}
	return p
}

func clonePlan(p *plan.Plan) *plan.Plan {
	out := *p
	out.Pools = make([]plan.Pool, len(p.Pools))
	for i, pool := range p.Pools {
		out.Pools[i] = slices.Clone(pool)
	}
	return &out
}

// groupOutcome tells which paths one comparison went through.
type groupOutcome struct {
	compared bool
	invalid  bool // the ungrouped plan does not validate
	grouped  bool // a move was kept
	split    bool // a vjob's resumes stayed in several pools
	// nic: grouping a vjob left split would oversubscribe a NIC
	nic bool
}

// groupCase plans one instance without grouping, groups the plan with
// both passes, and returns a description of the first difference, or
// "". The seed picks the shape, one in fifty a 500-node consolidation
// like the benchmark's; the plan comes from loosePlan, from the
// builder, or from the builder with NIC gating off, which leaves plans
// oversubscribing a NIC.
func groupCase(seed int64) (string, groupOutcome) {
	rng := rand.New(rand.NewSource(seed))
	var src, dst *vjob.Configuration
	switch seed % 5 {
	case 1:
		src, dst = storePair(rng)
	case 3:
		src, dst = squeezePair(rng)
	case 4:
		return compareGrouping(refillPlan(rng))
	default:
		nodes := 0
		if seed%50 == 0 {
			nodes = 500
		}
		var ok bool
		if src, dst, ok = generatedPair(rng, int(seed/5), nodes); !ok {
			return "", groupOutcome{}
		}
	}
	g, err := plan.BuildGraph(src, dst)
	if err != nil {
		return fmt.Sprintf("graph: %v", err), groupOutcome{}
	}
	var ungrouped *plan.Plan
	if rng.Intn(3) == 0 {
		ungrouped = loosePlan(rng, g)
	} else {
		ungrouped, err = plan.Builder{DisableTransferGating: rng.Intn(3) == 0}.Pools(g)
	}
	if ungrouped == nil || err != nil {
		return "", groupOutcome{}
	}
	return compareGrouping(ungrouped)
}

// compareGrouping groups copies of the plan with both passes.
func compareGrouping(ungrouped *plan.Plan) (diff string, out groupOutcome) {
	ref, got := clonePlan(ungrouped), clonePlan(ungrouped)
	refGroupVJobResumes(ref)
	plan.GroupVJobResumes(got)
	if got.String() != ref.String() {
		return fmt.Sprintf("plans differ:\ngot:\n%s\nreference:\n%s", got, ref), out
	}
	out.compared = true
	out.invalid = ungrouped.Validate() != nil
	out.grouped = got.String() != ungrouped.String()
	pools := make(map[string]int)
	for i, pool := range got.Pools {
		for _, a := range pool {
			if r, ok := a.(*plan.Resume); ok && r.Machine.VJob != "" {
				if p, seen := pools[r.Machine.VJob]; seen && p != i {
					out.split = true
					if moved := refTryMoveResumes(got, r.Machine.VJob, i); moved != nil {
						err := moved.Validate()
						out.nic = out.nic || (err != nil && strings.Contains(err.Error(), "oversubscribes a NIC"))
					}
				}
				pools[r.Machine.VJob] = i
			}
		}
	}
	return "", out
}

// TestGroupingMatchesReference: on at least 500 instances — generated
// consolidations of the three mixes, 16 of them on 500 nodes,
// NIC-contended store shapes and refilled overloaded nodes, planned by
// the builder with and without NIC gating or by loosePlan — the
// grouping pass leaves the plan the reference leaves. The cases must
// reach kept moves, moves refused on a node's room and on a NIC, and
// the whole-plan fallback.
func TestGroupingMatchesReference(t *testing.T) {
	var compared, invalid, grouped, split, nic int
	for seed := int64(0); seed < 800; seed++ {
		diff, out := groupCase(seed)
		if diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		if out.compared {
			compared++
		}
		if out.invalid {
			invalid++
		}
		if out.grouped && !out.invalid {
			grouped++
		}
		if out.split && !out.invalid {
			split++
		}
		if out.nic && !out.invalid {
			nic++
		}
	}
	t.Logf("%d plans compared: invalid %d, valid and grouped %d, valid and left split %d, on a NIC %d", compared, invalid, grouped, split, nic)
	if compared < 500 || invalid == 0 || grouped == 0 || split == 0 || nic == 0 {
		t.Fatalf("too few cases or a path never reached: compared %d, invalid %d, grouped %d, split %d, on a NIC %d", compared, invalid, grouped, split, nic)
	}
}

// bookedResume is one resume of a hand-made plan: its VM, whose vjob
// is the name's first letter, the image's node and the pool.
type bookedResume struct {
	vm, from string
	pool     int
}

// storedPlan is a valid plan of resumes only, each onto a host of its
// own: from "store", whose NIC carries two resumes at once, or from
// "open", which meters nothing.
func storedPlan(t *testing.T, resumes []bookedResume) *plan.Plan {
	t.Helper()
	src := vjob.NewConfiguration()
	store, open := resources.New(0, 0), resources.New(0, 0)
	store.Set(resources.NetBW, 2*plan.ResumePushRateMbps)
	src.AddNode(vjob.NewNodeRes("store", store))
	src.AddNode(vjob.NewNodeRes("open", open))
	var pools []plan.Pool
	for k, r := range resumes {
		host := fmt.Sprintf("h%d", k)
		capacity := resources.New(1, 1024)
		capacity.Set(resources.NetBW, 1000)
		src.AddNode(vjob.NewNodeRes(host, capacity))
		v := vjob.NewVM(r.vm, r.vm[:1], 1, 512)
		src.AddVM(v)
		_ = src.SetSleeping(v.Name, r.from)
		for len(pools) <= r.pool {
			pools = append(pools, nil)
		}
		pools[r.pool] = append(pools[r.pool], &plan.Resume{Machine: v, From: r.from, On: host})
	}
	p := &plan.Plan{Src: src, Pools: pools}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGroupingKeepsNICBooks: plans where a target pool's NIC book must
// follow the moves. In "release", a's move builds pool 1's book, where
// a-1 and b-1 fill the store's NIC; b's kept move takes b-1 out of
// pool 1; c-0, from the store, then fits pool 1 only if that release
// reached pool 1's book. In "late book", a's kept move takes a-1 out of
// pool 1 before pool 1 has a book; b-0 then fits pool 1 only if the
// book, built for b, leaves a-1 out. In "undo", a's first late resume
// fits pool 2's book and its second does not; b-0 then fits pool 2
// only if the refused move took the first back. All match the
// reference.
func TestGroupingKeepsNICBooks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		resumes []bookedResume
		want    string // the VMs of each pool after grouping
	}{
		{"release", []bookedResume{
			{"a-0", "open", 0}, {"b-0", "open", 0}, {"c-0", "store", 0},
			{"a-1", "store", 1}, {"b-1", "store", 1}, {"c-1", "open", 1},
			{"b-2", "open", 2},
		}, "[[a-0 a-1 c-0 c-1] [b-0 b-1 b-2]]"},
		{"late book", []bookedResume{
			{"a-0", "open", 0}, {"b-0", "store", 0},
			{"a-1", "store", 1}, {"b-1", "open", 1}, {"z-0", "store", 1},
			{"a-2", "open", 2},
		}, "[[b-0 b-1 z-0] [a-0 a-1 a-2]]"},
		{"undo", []bookedResume{
			{"a-0", "store", 0}, {"b-0", "store", 0},
			{"a-1", "store", 1},
			{"a-2", "open", 2}, {"b-1", "open", 2}, {"y-0", "store", 2},
		}, "[[a-0] [a-1] [a-2 b-0 b-1 y-0]]"},
	} {
		p := storedPlan(t, tc.resumes)
		if diff, _ := compareGrouping(p); diff != "" {
			t.Fatalf("%s: %s", tc.name, diff)
		}
		plan.GroupVJobResumes(p)
		var got [][]string
		for _, pool := range p.Pools {
			var names []string
			for _, a := range pool {
				names = append(names, a.VM().Name)
			}
			got = append(got, names)
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("%s: pools %v, want %s", tc.name, got, tc.want)
		}
	}
}

// planAllocLanding is what one Builder.Plan of a 500-node FFD graph
// allocated once the pools were cut from one array and the actions
// left over filtered in place; 189 100 when each pool and its leftovers
// grew from nil, and 405 000 when resume grouping copied the pool list
// and re-sorted and re-booked the target pool per vjob.
const planAllocLanding = 161_900

// TestPlanAllocationBudget fails when planning the benchmark's 500-node
// FFD graph allocates a quarter more than it did at landing.
func TestPlanAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	src, dst, ok := generatedPair(rand.New(rand.NewSource(1)), 0, 500)
	if !ok {
		t.Fatal("FFD found no destination")
	}
	g, err := plan.BuildGraph(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// The least of a few measurements: another goroutine's allocation
	// may fall into one.
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := plan.Builder{}.Plan(g)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > planAllocLanding*5/4 {
		t.Fatalf("one plan allocated %d bytes, more than 1.25 x the %d it allocated at landing", least, planAllocLanding)
	}
}

// FuzzGroupResumes explores further seeds of the same comparison.
func FuzzGroupResumes(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 11, 50, 100} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if diff, _ := groupCase(seed); diff != "" {
			t.Fatal(diff)
		}
	})
}
