package core

import (
	"cmp"
	"slices"
	"strings"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// Partitioner splits a reconfiguration Problem into node-disjoint
// sub-problems that can be optimized concurrently and whose plans merge
// (plan.Merge) into one feasibility-preserving plan. The split follows
// the structure of the paper's own model: a VM's placement choices only
// interact through shared nodes, so once the node set is partitioned —
// keeping every binding inside one slice — the §4.3 models of the
// slices are fully independent.
//
// Two kinds of bindings are honored:
//
//   - hard: a VM and its current host (running) or image host
//     (sleeping), and the scope of a placement rule (a Spread/Gather
//     must see all its VMs; a Fence drags its node group along). Hard
//     bindings are never cut.
//   - soft: the VMs of one vjob. Keeping a gang together preserves the
//     §4.1 grouping of its suspends/resumes into common pools, but the
//     state consistency of the gang is already guaranteed by the shared
//     Target map, so the link may be cut when it would chain too much
//     of the cluster into one slice.
//
// Connected components of the full binding relation form the preferred
// atoms. A component larger than the slice-size cap is decomposed along
// its soft links into hard atoms (current placements scatter a vjob
// across many nodes, transitively welding half the cluster together —
// the very coupling the cap exists to break). Atoms are then packed
// into the requested number of partitions along the viable/non-viable
// seam: overloaded atoms (demand above capacity) spread across
// partitions first, then atoms with headroom fill the neediest
// partitions, so every partition mixes load to shed with room to
// absorb it.
type Partitioner struct {
	// Parts is the requested partition count: 0 picks one partition per
	// maxNodes nodes, 1 disables partitioning, larger values are capped
	// by the number of atoms.
	Parts int
	// maxNodes is the auto-mode partition size target; 0 defaults to 16
	// — the size up to which one slice typically proves optimality in
	// milliseconds, so a whole sweep of slices completes well inside a
	// budget that the monolithic model exhausts without a proof. Only
	// the carve's differential tests set it.
	maxNodes int
}

// defaultMaxPartitionNodes is the auto-mode slice size.
const defaultMaxPartitionNodes = 16

// atom is one indivisible slice of the cluster: a connected component
// of the binding relation.
type atom struct {
	nodes []string
	vms   []string
	cap   resources.Vector
	dem   resources.Vector
}

// pressure is how far the atom's running demand exceeds its capacity,
// the max over resource dimensions normalized by cluster totals so
// every dimension compares; positive means the atom cannot absorb its
// own load on some dimension. Dimensions the cluster offers nothing of
// are skipped. Its negation is the atom's slack: the least normalized
// headroom over the dimensions.
func (a *atom) pressure(tot resources.Vector) float64 {
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

// mathInfNeg starts max-accumulations below any real pressure value.
const mathInfNeg = -1e18

// Split decomposes the problem. It returns nil (no error) when the
// problem should stay monolithic: fewer than two partitions asked or
// achievable.
//
// The carve runs on dense indices — nodes, then VMs, then rules, in
// Nodes(), VMs() and Rules order — so it costs O(nodes + VMs + rule
// scopes), plus one Extract per slice.
func (pt Partitioner) Split(p Problem) ([]Problem, error) {
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
	vms := p.Src.VMs()
	vmBase, ruleBase := len(nodes), len(nodes)+len(vms)
	total := int32(ruleBase + len(p.Rules))
	hard := newUnionFind(total)
	for i, v := range vms {
		if loc := p.Src.LocationOf(v.Name); loc != "" {
			if n := indexOf(nodes, loc, nodeName); n >= 0 {
				hard.union(int32(vmBase+i), int32(n))
			}
		}
	}
	covered := make([]bool, len(vms))
	for i, r := range p.Rules {
		for _, name := range r.ScopeVMs() {
			if v := indexOf(vms, name, vmName); v >= 0 {
				hard.union(int32(ruleBase+i), int32(vmBase+v))
				covered[v] = true
			}
		}
		for _, name := range r.BindNodes() {
			if n := indexOf(nodes, name, nodeName); n >= 0 {
				hard.union(int32(ruleBase+i), int32(n))
			}
		}
	}

	// Soft bindings on top: the gang links of each vjob.
	soft := slices.Clone(hard)
	gang := make(map[string]int32) // vjob -> first member
	for i, v := range vms {
		if v.VJob == "" {
			continue
		}
		if first, ok := gang[v.VJob]; ok {
			soft.union(first, int32(vmBase+i))
		} else {
			gang[v.VJob] = int32(vmBase + i)
		}
	}
	softNodes := make([]int32, total) // soft root -> node count
	for n := range nodes {
		softNodes[soft.find(int32(n))]++
	}
	// rootOf keeps a whole soft component together when it fits the
	// slice cap and falls back to the hard component otherwise,
	// cutting only gang links. A soft component over the cap answers
	// only with the hard roots inside it, so a hard root never names a
	// soft component's atom.
	rootOf := func(e int32) int32 {
		if sr := soft.find(e); int(softNodes[sr]) <= sliceCap {
			return sr
		}
		return hard.find(e)
	}

	// Collect atoms (components holding nodes) and floating cohorts
	// (components of waiting VMs bound to no node yet), in order of
	// first appearance. Floating VMs of one vjob always cohere: with no
	// placement there is no reason to cut their gang.
	atomOf := make([]int32, total) // root -> index in atoms, -1 for none
	for i := range atomOf {
		atomOf[i] = -1
	}
	atoms := make([]atom, 0, len(nodes)) // the node atoms, at most one per node, then the cohorts
	get := func(root int32) *atom {
		if atomOf[root] < 0 {
			atomOf[root] = int32(len(atoms))
			atoms = append(atoms, atom{})
		}
		return &atoms[atomOf[root]]
	}
	var tot resources.Vector
	for i, n := range nodes {
		a := get(rootOf(int32(i)))
		a.nodes = append(a.nodes, n.Name)
		a.cap = a.cap.Add(n.Capacity)
		tot = tot.Add(n.Capacity)
	}
	if tot.Get(resources.CPU) == 0 || tot.Get(resources.Memory) == 0 {
		return nil, nil
	}
	floatRoot := make(map[string]int32) // vjob -> floating atom root
	for i, v := range vms {
		root := rootOf(int32(vmBase + i))
		if ex := atomOf[root]; (ex < 0 || len(atoms[ex].nodes) == 0) && v.VJob != "" && !covered[i] {
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

	pressure := make([]float64, len(atoms))
	var nodeAtoms, floating []int32
	for i := range atoms {
		if len(atoms[i].nodes) > 0 {
			nodeAtoms = append(nodeAtoms, int32(i))
			pressure[i] = atoms[i].pressure(tot)
		} else {
			floating = append(floating, int32(i))
		}
	}
	if want > len(nodeAtoms) {
		want = len(nodeAtoms)
	}
	if want <= 1 {
		return nil, nil
	}

	// Pack atoms into bins along the viable/non-viable seam.
	slices.SortStableFunc(nodeAtoms, func(x, y int32) int {
		if c := cmp.Compare(pressure[y], pressure[x]); c != 0 {
			return c
		}
		return strings.Compare(atoms[x].nodes[0], atoms[y].nodes[0])
	})
	slices.SortStableFunc(floating, func(x, y int32) int {
		a, b := &atoms[x], &atoms[y]
		if c := cmp.Compare(b.dem.Get(resources.Memory), a.dem.Get(resources.Memory)); c != 0 {
			return c
		}
		return strings.Compare(a.vms[0], b.vms[0])
	})

	bins := make([]atom, want)
	slack := make([]float64, want)     // per bin; 0 while it holds nothing
	binOf := make([]int32, len(atoms)) // atom -> bin
	for _, ai := range nodeAtoms {
		// Overloaded atoms spread to the roomiest bins; headroom atoms
		// backfill the neediest (most overloaded, then still-empty)
		// ones.
		binOf[ai] = assignAtom(bins, slack, &atoms[ai], pressure[ai] > 0, tot)
	}
	// Drop bins the greedy pass left without nodes (possible when a few
	// giant atoms absorbed everything). Empty bins tie on slack and
	// node count, so the pass fills them lowest index first: the empty
	// ones are a suffix.
	for len(bins[len(bins)-1].nodes) == 0 {
		bins, slack = bins[:len(bins)-1], slack[:len(slack)-1]
	}
	if len(bins) <= 1 {
		return nil, nil
	}
	// Floating cohorts (all-waiting vjobs) go where the room is.
	for _, ai := range floating {
		binOf[ai] = assignAtom(bins, slack, &atoms[ai], true, tot)
	}

	// Each rule travels with its component's bin, in rule order.
	binRules := make([][]int, len(bins))
	for i := range p.Rules {
		if ai := atomOf[rootOf(int32(ruleBase+i))]; ai >= 0 {
			binRules[binOf[ai]] = append(binRules[binOf[ai]], i)
		}
	}

	// Materialize the sub-problems.
	out := make([]Problem, len(bins))
	for bi, b := range bins {
		vmSet := make(map[string]bool, len(b.vms))
		for _, name := range b.vms {
			vmSet[name] = true
		}
		nodeSet := make(map[string]bool, len(b.nodes))
		for _, n := range b.nodes {
			nodeSet[n] = true
		}
		var rules []PlacementRule
		for _, i := range binRules[bi] {
			if rr := p.Rules[i].Rescope(vmSet, nodeSet); rr != nil {
				rules = append(rules, rr)
			}
		}
		sub, err := p.restrict(b.nodes, b.vms, rules)
		if err != nil {
			return nil, err
		}
		out[bi] = sub
	}
	return out, nil
}

// restrict is the sub-problem over nodes and vms: their extracted
// configuration, the Target entries of the vjobs those VMs belong to,
// and rules (already rescoped by the caller).
func (p Problem) restrict(nodes, vms []string, rules []PlacementRule) (Problem, error) {
	sub, err := p.Src.Extract(nodes, vms)
	if err != nil {
		return Problem{}, err
	}
	target := make(map[string]vjob.State)
	for _, name := range vms {
		if job := p.Src.VM(name).VJob; job != "" {
			if st, ok := p.Target[job]; ok {
				target[job] = st
			}
		}
	}
	return Problem{Src: sub, Target: target, Rules: rules}, nil
}

// assignAtom adds the atom to the bin with the widest (wide) or
// tightest slack, breaking ties towards fewer nodes then lower index,
// and returns that bin. Slack is the minimum over resource dimensions
// of the bin's normalized headroom — a bin tight on any one dimension
// is a tight bin; slack caches it per bin, and only the bin that grew
// is re-evaluated.
func assignAtom(bins []atom, slack []float64, a *atom, wide bool, tot resources.Vector) int32 {
	best := 0
	for i := 1; i < len(bins); i++ {
		si, sb := slack[i], slack[best]
		better := si < sb
		if wide {
			better = si > sb
		}
		if better || (si == sb && len(bins[i].nodes) < len(bins[best].nodes)) {
			best = i
		}
	}
	b := &bins[best]
	b.nodes = append(b.nodes, a.nodes...)
	b.vms = append(b.vms, a.vms...)
	b.cap = b.cap.Add(a.cap)
	b.dem = b.dem.Add(a.dem)
	slack[best] = -b.pressure(tot)
	return int32(best)
}

func nodeName(n *vjob.Node) string { return n.Name }
func vmName(v *vjob.VM) string     { return v.Name }

// indexOf finds name in a list kept in name order (Nodes(), VMs()),
// or -1.
func indexOf[T any](list []T, name string, nameOf func(T) string) int {
	i, ok := slices.BinarySearchFunc(list, name, func(e T, name string) int { return strings.Compare(nameOf(e), name) })
	if !ok {
		return -1
	}
	return i
}

// unionFind is a disjoint-set forest over dense element indices, with
// path compression.
type unionFind []int32

func newUnionFind(n int32) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

func (u unionFind) find(k int32) int32 {
	root := k
	for u[root] != root {
		root = u[root]
	}
	for u[k] != root {
		u[k], k = root, u[k]
	}
	return root
}

func (u unionFind) union(a, b int32) {
	if ra, rb := u.find(a), u.find(b); ra != rb {
		u[ra] = rb
	}
}
