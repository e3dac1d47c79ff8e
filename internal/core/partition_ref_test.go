package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// splitProblem is randomProblem with up to two loose VMs (no vjob) and
// up to five random rules: Spread, Gather, Fence, Ban and Drained
// over random subsets of the VMs and nodes, sometimes naming one the
// configuration does not know. Drawn on top, so every dimension of the
// carve's vector arithmetic is summed and compared: up to three nodes
// of their own capacity, some with net and disk; up to three VMs with
// net and disk demand, most of them running; and, in a third of the
// problems, more all-waiting vjobs than nodes, some of them to run.
func splitProblem(t *testing.T, rng *rand.Rand) Problem {
	p := randomProblem(t, rng)
	nodes := p.Src.Nodes()
	for i := rng.Intn(3); i < 2; i++ {
		v := vjob.NewVM(fmt.Sprintf("loose-%d", i), "", rng.Intn(2), 512)
		p.Src.AddVM(v)
		if rng.Intn(2) == 0 {
			mustRun(t, p.Src, v.Name, nodes[rng.Intn(len(nodes))].Name)
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		c := resources.New(1+rng.Intn(4), 1024*(1+rng.Intn(8)))
		if rng.Intn(2) == 0 {
			c.Set(resources.NetBW, 100*rng.Intn(10))
			c.Set(resources.DiskIO, 50*rng.Intn(10))
		}
		p.Src.AddNode(vjob.NewNodeRes(fmt.Sprintf("x%d", i), c))
	}
	nodes = p.Src.Nodes()
	for i := rng.Intn(4); i > 0; i-- {
		d := resources.New(rng.Intn(2), 256*(1+rng.Intn(4)))
		d.Set(resources.NetBW, 50*rng.Intn(6))
		d.Set(resources.DiskIO, 25*rng.Intn(6))
		v := vjob.NewVMRes(fmt.Sprintf("io-%d", i), fmt.Sprintf("io%d", rng.Intn(2)), d)
		p.Src.AddVM(v)
		if rng.Intn(3) > 0 {
			mustRun(t, p.Src, v.Name, nodes[rng.Intn(len(nodes))].Name)
		}
	}
	if rng.Intn(3) == 0 {
		for i := len(nodes) + rng.Intn(3); i >= 0; i-- {
			job := fmt.Sprintf("w%d", i)
			for k := rng.Intn(2); k >= 0; k-- {
				p.Src.AddVM(vjob.NewVM(fmt.Sprintf("%s-%d", job, k), job, rng.Intn(2), 512*(1+rng.Intn(4))))
			}
			if rng.Intn(2) == 0 {
				p.Target[job] = vjob.Running
			}
		}
	}
	var vmNames, nodeNames []string
	for _, v := range p.Src.VMs() {
		vmNames = append(vmNames, v.Name)
	}
	for _, n := range nodes {
		nodeNames = append(nodeNames, n.Name)
	}
	pick := func(names []string, ghost string) []string {
		var out []string
		for _, n := range names {
			if rng.Intn(3) == 0 {
				out = append(out, n)
			}
		}
		if rng.Intn(8) == 0 {
			out = append(out, ghost)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	for k := rng.Intn(6); k > 0; k-- {
		var r PlacementRule
		switch rng.Intn(5) {
		case 0:
			r = Spread{VMs: pick(vmNames, "ghost-vm")}
		case 1:
			r = Gather{VMs: pick(vmNames, "ghost-vm")}
		case 2:
			r = Fence{VMs: pick(vmNames, "ghost-vm"), Nodes: pick(nodeNames, "ghost-node")}
		case 3:
			r = Ban{VMs: pick(vmNames, "ghost-vm"), Nodes: pick(nodeNames, "ghost-node")}
		default:
			r = Drained{Nodes: pick(nodeNames, "ghost-node")}
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// splitsAgree fails unless Split and refSplit carve p alike: the same
// error verdict, the same number of slices and, slice by slice, the
// same configuration, target map and rescoped rules in order. It
// reports how many slices both made.
func splitsAgree(t *testing.T, pt Partitioner, p Problem) int {
	t.Helper()
	got, gerr := pt.Split(p)
	want, werr := refSplit(pt, p)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%+v: error %v, reference %v", pt, gerr, werr)
	}
	if why := sameSlices(got, want); why != "" {
		t.Fatalf("%+v: %s\n%s", pt, why, p.Src)
	}
	return len(got)
}

// sameSlices says how got differs from want — in length, or in a
// slice's configuration, target map or rescoped rules — or "".
func sameSlices(got, want []Problem) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d slices, reference %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].Src.String(), want[i].Src.String(); g != w {
			return fmt.Sprintf("slice %d holds\n%s\nreference\n%s", i, g, w)
		}
		if !maps.Equal(got[i].Target, want[i].Target) {
			return fmt.Sprintf("slice %d targets %v, reference %v", i, got[i].Target, want[i].Target)
		}
		if !reflect.DeepEqual(got[i].Rules, want[i].Rules) {
			return fmt.Sprintf("slice %d rules %#v, reference %#v", i, got[i].Rules, want[i].Rules)
		}
	}
	return ""
}

// TestSplitMatchesReference holds the indexed carve to the string-keyed
// one it replaced: 600 random problems under four partition counts and
// random slice caps, then three 1000-node solve_sliced instances with a
// node budget per VM.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	carves, split, ruled := 0, 0, 0
	for inst := 0; inst < 600; inst++ {
		p := splitProblem(t, rng)
		for _, parts := range []int{0, 2, 3, 5} {
			carves++
			if n := splitsAgree(t, Partitioner{Parts: parts, maxNodes: 2 + rng.Intn(7)}, p); n > 1 {
				split++
				if len(p.Rules) > 0 {
					ruled++
				}
			}
		}
	}
	t.Logf("%d of %d carves split, %d with rules", split, carves, ruled)
	if split < carves/2 || ruled < carves/4 {
		t.Fatalf("%d of %d carves split, %d with rules: the generator no longer exercises the carve", split, carves, ruled)
	}
	for seed := int64(1); seed <= 3; seed++ {
		if n := splitsAgree(t, Partitioner{}, budgetedProblem(seed, 1000, 150)); n < 2 {
			t.Fatalf("1000-node instance %d: %d slices", seed, n)
		}
	}
}

// FuzzSplit drives the same comparison over the generator's seed, the
// partition count and the slice cap.
func FuzzSplit(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%6), uint8(seed%9))
	}
	f.Fuzz(func(t *testing.T, seed int64, parts, maxNodes uint8) {
		p := splitProblem(t, rand.New(rand.NewSource(seed)))
		splitsAgree(t, Partitioner{Parts: int(parts % 7), maxNodes: int(maxNodes % 9)}, p)
	})
}

// splitAllocLanding is what one Split of
// budgetedProblem(1, 1000, 150) — 1000 nodes, 1500 VMs, 1500 scoped rules — allocates once the
// carve's flat arrays live in an idle scratch, so only the slices it
// returns are allocated; 556 000 when each Split sized its atoms,
// bins and rule lists in flat arrays of its own, with searchBudget
// storing its scope; 568 000 while searchBudget.ScopeVMs built a
// fresh one-element slice per call (1500 allocations of the test
// rule's own, charged to Split), 1 093 000 when each atom and bin
// held its own name lists (the atoms presized to the node count,
// which the floating cohorts outgrew), 1 590 000 when they grew by
// append after the carve moved to dense indices, and about 3.2 MB for
// the string-keyed carve.
const splitAllocLanding = 306_736

// TestSplitAllocationBudget fails when that Split allocates a quarter
// more than it did at landing. Bytes are counted, not timed.
func TestSplitAllocationBudget(t *testing.T) {
	p := budgetedProblem(1, 1000, 150)
	pt := Partitioner{}
	if _, err := pt.Split(p); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parts, err := pt.Split(p)
	runtime.ReadMemStats(&after)
	if err != nil || len(parts) < 2 {
		t.Fatalf("%d slices, %v", len(parts), err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Split allocated %d bytes", got)
	if got > splitAllocLanding*5/4 {
		t.Fatalf("one Split allocated %d bytes, more than 1.25 x the %d it allocated at landing", got, splitAllocLanding)
	}
}

// TestMonolithicSplitAllocatesNothing: with one partition asked, Split
// returns before it lists a node, so a monolithic solve pays nothing
// for the carve.
func TestMonolithicSplitAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	p := budgetedProblem(1, 100, 300)
	if allocs := testing.AllocsPerRun(20, func() {
		if parts, err := (Partitioner{Parts: 1}).Split(p); parts != nil || err != nil {
			t.Fatalf("%d slices, %v", len(parts), err)
		}
	}); allocs != 0 {
		t.Fatalf("Split with one partition asked: %v allocations, want 0", allocs)
	}
}

// refSplit is Partitioner.Split as it ran on a string-keyed union-find,
// before the carve moved to dense indices: "n\x00"/"v\x00"/"r\x00"/
// "h\x00" keys, one map per lookup table, and every rule's bin looked up
// once per bin. It is kept verbatim but for its names (and pt as a
// parameter) as the reference TestSplitMatchesReference and FuzzSplit
// hold the indexed carve to.
func refSplit(pt Partitioner, p Problem) ([]Problem, error) {
	nodes := p.Src.Nodes()
	maxNodes := pt.maxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxPartitionNodes
	}
	want := pt.Parts
	sliceCap := maxNodes
	if want == 0 {
		want = (len(nodes) + maxNodes - 1) / maxNodes
	} else if want > 1 {
		sliceCap = (len(nodes) + want - 1) / want
	}
	if want <= 1 || len(nodes) < 2 {
		return nil, nil
	}

	// Hard bindings: every VM to its current location, every rule to
	// its covered VMs and bound nodes.
	hard := newRefUnionFind()
	nodeKey := func(n string) string { return "n\x00" + n }
	vmKey := func(v *vjob.VM) string { return "v\x00" + v.Name }
	for _, n := range nodes {
		hard.add(nodeKey(n.Name))
	}
	for _, v := range p.Src.VMs() {
		hard.add(vmKey(v))
		if loc := p.Src.LocationOf(v.Name); loc != "" {
			hard.union(vmKey(v), nodeKey(loc))
		}
	}
	ruleKeys := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		ruleKeys[i] = fmt.Sprintf("r\x00%d", i)
		hard.add(ruleKeys[i])
		for _, name := range r.ScopeVMs() {
			if v := p.Src.VM(name); v != nil {
				hard.union(ruleKeys[i], vmKey(v))
			}
		}
		for _, n := range r.BindNodes() {
			if p.Src.Node(n) != nil {
				hard.union(ruleKeys[i], nodeKey(n))
			}
		}
	}

	// Soft bindings on top: the gang links of each vjob.
	soft := hard.clone()
	gang := make(map[string]string) // vjob -> key of first member
	for _, v := range p.Src.VMs() {
		if v.VJob == "" {
			continue
		}
		if first, ok := gang[v.VJob]; ok {
			soft.union(first, vmKey(v))
		} else {
			gang[v.VJob] = vmKey(v)
		}
	}
	softNodes := make(map[string]int) // soft root -> node count
	for _, n := range nodes {
		softNodes[soft.find(nodeKey(n.Name))]++
	}
	// rootOf keeps a whole soft component together when it fits the
	// slice cap and falls back to the hard component otherwise,
	// cutting only gang links.
	rootOf := func(key string) string {
		if sr := soft.find(key); softNodes[sr] <= sliceCap {
			return sr
		}
		return "h\x00" + hard.find(key)
	}

	// Collect atoms (components holding nodes) and floating cohorts
	// (components of waiting VMs bound to no node yet). Floating VMs of
	// one vjob always cohere: with no placement there is no reason to
	// cut their gang.
	atoms := make(map[string]*refAtom)
	var order []string
	get := func(root string) *refAtom {
		a := atoms[root]
		if a == nil {
			a = &refAtom{}
			atoms[root] = a
			order = append(order, root)
		}
		return a
	}
	var tot resources.Vector
	for _, n := range nodes {
		a := get(rootOf(nodeKey(n.Name)))
		a.nodes = append(a.nodes, n.Name)
		a.cap = a.cap.Add(n.Capacity)
		tot = tot.Add(n.Capacity)
	}
	if tot.Get(resources.CPU) == 0 || tot.Get(resources.Memory) == 0 {
		return nil, nil
	}
	covered := make(map[string]bool)
	for _, r := range p.Rules {
		for _, name := range r.ScopeVMs() {
			covered[name] = true
		}
	}
	floatRoot := make(map[string]string) // vjob -> floating atom root
	for _, v := range p.Src.VMs() {
		root := rootOf(vmKey(v))
		if ex := atoms[root]; (ex == nil || len(ex.nodes) == 0) && v.VJob != "" && !covered[v.Name] {
			// A waiting VM whose gang was cut would land in a singleton
			// cohort; regroup uncovered floaters of one vjob (covered
			// ones must stay with their rule's atom).
			if fr, ok := floatRoot[v.VJob]; ok {
				root = fr
			} else {
				floatRoot[v.VJob] = root
			}
		}
		a := get(root)
		a.vms = append(a.vms, v.Name)
		if p.wantOf(v, p.Src.StateOf(v.Name)) == vjob.Running {
			a.dem = a.dem.Add(v.Demand)
		}
	}

	var nodeAtoms, floating []string
	for _, root := range order {
		if len(atoms[root].nodes) > 0 {
			nodeAtoms = append(nodeAtoms, root)
		} else {
			floating = append(floating, root)
		}
	}
	if want > len(nodeAtoms) {
		want = len(nodeAtoms)
	}
	if want <= 1 {
		return nil, nil
	}

	// Pack atoms into bins along the viable/non-viable seam.
	sort.SliceStable(nodeAtoms, func(i, j int) bool {
		a, b := atoms[nodeAtoms[i]], atoms[nodeAtoms[j]]
		pa, pb := a.pressure(tot), b.pressure(tot)
		if pa != pb {
			return pa > pb
		}
		return a.nodes[0] < b.nodes[0]
	})
	sort.SliceStable(floating, func(i, j int) bool {
		a, b := atoms[floating[i]], atoms[floating[j]]
		if am, bm := a.dem.Get(resources.Memory), b.dem.Get(resources.Memory); am != bm {
			return am > bm
		}
		return a.vms[0] < b.vms[0]
	})

	bins := make([]*refAtom, want)
	for i := range bins {
		bins[i] = &refAtom{}
	}
	binOf := make(map[string]int)
	for _, root := range nodeAtoms {
		// Overloaded atoms spread to the roomiest bins; headroom atoms
		// backfill the neediest (most overloaded, then still-empty)
		// ones.
		refAssignAtom(atoms, bins, binOf, root, atoms[root].pressure(tot) > 0, tot)
	}
	// Drop bins the greedy pass left without nodes (possible when a few
	// giant atoms absorbed everything).
	kept := bins[:0]
	remap := make([]int, len(bins))
	for i, b := range bins {
		if len(b.nodes) > 0 {
			remap[i] = len(kept)
			kept = append(kept, b)
		} else {
			remap[i] = -1
		}
	}
	bins = kept
	for root, i := range binOf {
		binOf[root] = remap[i]
	}
	if len(bins) <= 1 {
		return nil, nil
	}
	// Floating cohorts (all-waiting vjobs) go where the room is.
	for _, root := range floating {
		refAssignAtom(atoms, bins, binOf, root, true, tot)
	}

	// Materialize the sub-problems.
	out := make([]Problem, len(bins))
	for bi, b := range bins {
		sub, err := p.Src.Extract(b.nodes, b.vms)
		if err != nil {
			return nil, err
		}
		target := make(map[string]vjob.State)
		vmSet := make(map[string]bool, len(b.vms))
		for _, name := range b.vms {
			vmSet[name] = true
			if job := p.Src.VM(name).VJob; job != "" {
				if st, ok := p.Target[job]; ok {
					target[job] = st
				}
			}
		}
		nodeSet := make(map[string]bool, len(b.nodes))
		for _, n := range b.nodes {
			nodeSet[n] = true
		}
		var rules []PlacementRule
		for i, r := range p.Rules {
			at, ok := binOf[rootOf(ruleKeys[i])]
			if !ok || at != bi {
				continue
			}
			if rr := r.Rescope(vmSet, nodeSet); rr != nil {
				rules = append(rules, rr)
			}
		}
		out[bi] = Problem{Src: sub, Target: target, Rules: rules}
	}
	return out, nil
}

// refAssignAtom adds the atom to the bin with the widest (wide) or
// tightest slack, breaking ties towards fewer nodes then lower index.
// Slack is the minimum over resource dimensions of the bin's
// normalized headroom — a bin tight on any one dimension is a tight
// bin.
func refAssignAtom(atoms map[string]*refAtom, bins []*refAtom, binOf map[string]int, root string, wide bool, tot resources.Vector) {
	a := atoms[root]
	slack := func(b *refAtom) float64 {
		s := 1e18
		for _, k := range resources.Kinds() {
			if tot.Get(k) <= 0 {
				continue
			}
			if m := float64(b.cap.Get(k)-b.dem.Get(k)) / float64(tot.Get(k)); m < s {
				s = m
			}
		}
		return s
	}
	best := 0
	for i := 1; i < len(bins); i++ {
		si, sb := slack(bins[i]), slack(bins[best])
		better := si < sb
		if wide {
			better = si > sb
		}
		if better || (si == sb && len(bins[i].nodes) < len(bins[best].nodes)) {
			best = i
		}
	}
	b := bins[best]
	b.nodes = append(b.nodes, a.nodes...)
	b.vms = append(b.vms, a.vms...)
	b.cap = b.cap.Add(a.cap)
	b.dem = b.dem.Add(a.dem)
	binOf[root] = best
}

// refAtom is an atom or a bin of refSplit: its node and VM names, its
// capacity and its running demand.
type refAtom struct {
	nodes []string
	vms   []string
	cap   resources.Vector
	dem   resources.Vector
}

// pressure is atom.pressure over the capacity and demand kept apart.
func (a *refAtom) pressure(tot resources.Vector) float64 {
	p := mathInfNeg
	for _, k := range resources.Kinds() {
		if tot.Get(k) <= 0 {
			continue
		}
		if d := float64(a.dem.Get(k)-a.cap.Get(k)) / float64(tot.Get(k)); d > p {
			p = d
		}
	}
	return p
}

// refUnionFind is a string-keyed disjoint-set forest with path
// compression.
type refUnionFind struct {
	parent map[string]string
}

func newRefUnionFind() *refUnionFind {
	return &refUnionFind{parent: make(map[string]string)}
}

func (u *refUnionFind) add(k string) {
	if _, ok := u.parent[k]; !ok {
		u.parent[k] = k
	}
}

func (u *refUnionFind) find(k string) string {
	u.add(k)
	root := k
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[k] != root {
		u.parent[k], k = root, u.parent[k]
	}
	return root
}

func (u *refUnionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

func (u *refUnionFind) clone() *refUnionFind {
	out := newRefUnionFind()
	for k, v := range u.parent {
		out.parent[k] = v
	}
	return out
}
