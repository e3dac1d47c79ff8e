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

// atom is one indivisible slice of the cluster, a connected component
// of the binding relation, as packing reads it: its node and VM counts
// and its running demand minus its capacity (a floating cohort has no
// capacity). A bin is the sum of the atoms packed into it.
type atom struct {
	nodes, vms int32
	over       resources.Vector
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
		if d := float64(a.over.Get(k)) / float64(tot.Get(k)); d > p {
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
// Nodes(), VMs() and Rules order — in the flat arrays of a carver that
// an idle scratch holds, so a warm carve allocates only what it
// returns: the slice array and what slice builds for each bin.
func (pt Partitioner) Split(p Problem) ([]Problem, error) {
	if pt.Parts != 0 && pt.Parts <= 1 {
		return nil, nil // before the scratch: a monolithic solve allocates nothing here
	}
	sc := takeScratch()
	defer sc.release()
	cv := &sc.carve
	if !pt.carve(p, cv) {
		return nil, nil
	}
	out := make([]Problem, len(cv.bins))
	for bi := range out {
		var err error
		if out[bi], err = cv.slice(p, bi); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// carver is the storage of a carve, held by a scratch: what carve fills
// and slice reads. Nothing a carve returns points into it.
type carver struct {
	nodes           []*vjob.Node
	vms             []*vjob.VM
	hard, soft      unionFind
	covered         []bool
	gang, floatRoot map[string]int32 // vjob -> first member; vjob -> floating atom root

	softNodes, atomOf, elemAtom, start, members, at, order, binOf, ruleHead, ruleNext []int32

	atoms, bins    []atom
	key, slack     []float64
	names          []string
	ends           [][2]int32
	vmSet, nodeSet map[string]bool
	marks          []uint8 // per bin, dirtySlices' marks
}

// fit sets *buf to length n (resize) and returns it.
func fit[T any](buf *[]T, n int) []T {
	*buf = resize(*buf, n)
	return *buf
}

// zeroed is fit with every element zero.
func zeroed[T any](buf *[]T, n int) []T {
	clear(fit(buf, n))
	return *buf
}

// carve fills cv with the carve of p, and reports whether it split
// into at least two bins.
func (pt Partitioner) carve(p Problem, cv *carver) bool {
	cv.nodes, cv.vms = p.Src.AppendNodes(cv.nodes[:0]), p.Src.AppendVMs(cv.vms[:0])
	nodes, vms := cv.nodes, cv.vms
	maxNodes := cmp.Or(pt.maxNodes, defaultMaxPartitionNodes)
	want, sliceCap := pt.Parts, maxNodes
	if want == 0 {
		want = (len(nodes) + maxNodes - 1) / maxNodes
	} else {
		sliceCap = (len(nodes) + want - 1) / want
	}
	if want <= 1 || len(nodes) < 2 {
		return false
	}

	// Hard bindings: every VM to its current location, every rule to
	// its covered VMs and bound nodes.
	vmBase, ruleBase := len(nodes), len(nodes)+len(vms)
	total := ruleBase + len(p.Rules)
	hard := newUnionFind(&cv.hard, total)
	for i, v := range vms {
		if loc := p.Src.LocationOf(v.Name); loc != "" {
			if n := indexOf(nodes, loc, nodeName); n >= 0 {
				hard.union(int32(vmBase+i), int32(n))
			}
		}
	}
	covered := zeroed(&cv.covered, len(vms))
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
	soft := unionFind(append(cv.soft[:0], hard...))
	cv.soft, cv.gang = soft, emptied(cv.gang, 0)
	for i, v := range vms {
		if v.VJob == "" {
			continue
		}
		if first, ok := cv.gang[v.VJob]; ok {
			soft.union(first, int32(vmBase+i))
		} else {
			cv.gang[v.VJob] = int32(vmBase + i)
		}
	}
	softNodes := zeroed(&cv.softNodes, total) // soft root -> node count
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

	// Number the atoms (components holding nodes), then the floating
	// cohorts (of waiting VMs bound to no node yet), by first appearance.
	// Floating VMs of one vjob always cohere: with no placement there is
	// no reason to cut their gang.
	atomOf := zeroed(&cv.atomOf, total)     // root -> 1 + its atom, 0 for none
	elemAtom := fit(&cv.elemAtom, ruleBase) // node or VM -> its atom
	numAtoms := int32(0)
	get := func(root int32) int32 {
		if atomOf[root] == 0 {
			numAtoms, atomOf[root] = numAtoms+1, numAtoms+1
		}
		return atomOf[root] - 1
	}
	var tot resources.Vector
	for i, n := range nodes {
		elemAtom[i] = get(rootOf(int32(i)))
		tot = tot.Add(n.Capacity)
	}
	if tot.Get(resources.CPU) == 0 || tot.Get(resources.Memory) == 0 {
		return false
	}
	numNodeAtoms := numAtoms // atoms [0, numNodeAtoms) hold nodes
	cv.floatRoot = emptied(cv.floatRoot, 0)
	for i, v := range vms {
		root := rootOf(int32(vmBase + i))
		if ex := atomOf[root]; (ex == 0 || ex > numNodeAtoms) && v.VJob != "" && !covered[i] {
			// A waiting VM whose gang was cut would land in a singleton
			// cohort; regroup uncovered floaters of one vjob (covered
			// ones must stay with their rule's atom).
			if fr, ok := cv.floatRoot[v.VJob]; ok {
				root = fr
			} else {
				cv.floatRoot[v.VJob] = root
			}
		}
		elemAtom[vmBase+i] = get(root)
	}
	if want = min(want, int(numNodeAtoms)); want <= 1 {
		return false
	}

	// A counting pass sums each atom and makes its members (nodes, then
	// VMs) a range of one array.
	atoms := zeroed(&cv.atoms, int(numAtoms))
	start := zeroed(&cv.start, int(numAtoms)+1) // atom -> its first member
	for e, ai := range elemAtom {
		if start[ai+1]++; e < vmBase {
			atoms[ai].nodes++
			atoms[ai].over = atoms[ai].over.Sub(nodes[e].Capacity)
		} else if v := vms[e-vmBase]; p.wantOf(v, p.Src.StateOf(v.Name)) == vjob.Running {
			atoms[ai].over = atoms[ai].over.Add(v.Demand)
		}
	}
	for ai := range numAtoms {
		atoms[ai].vms = start[ai+1] - atoms[ai].nodes
		start[ai+1] += start[ai]
	}
	members := fit(&cv.members, len(elemAtom))
	at := append(cv.at[:0], start[:numAtoms]...)
	for e, ai := range elemAtom {
		members[at[ai]], at[ai] = int32(e), at[ai]+1
	}
	cv.at = at
	name := func(e int32) string {
		if e < int32(vmBase) {
			return nodes[e].Name
		}
		return vms[e-int32(vmBase)].Name
	}

	// Pack atoms into bins along the viable/non-viable seam: node atoms by
	// falling pressure, then cohorts by falling memory demand (exact).
	order, key := fit(&cv.order, int(numAtoms)), fit(&cv.key, int(numAtoms))
	for ai := range order {
		order[ai], key[ai] = int32(ai), float64(atoms[ai].over.Get(resources.Memory))
		if ai < int(numNodeAtoms) {
			key[ai] = atoms[ai].pressure(tot)
		}
	}
	byKey := func(x, y int32) int {
		if c := cmp.Compare(key[y], key[x]); c != 0 {
			return c
		}
		return strings.Compare(name(members[start[x]]), name(members[start[y]]))
	}
	slices.SortStableFunc(order[:numNodeAtoms], byKey)
	slices.SortStableFunc(order[numNodeAtoms:], byKey)

	bins, slack := zeroed(&cv.bins, want), zeroed(&cv.slack, want) // slack per bin; 0 while it holds nothing
	binOf := fit(&cv.binOf, int(numAtoms))                         // atom -> bin
	for _, ai := range order[:numNodeAtoms] {
		// Overloaded atoms spread to the roomiest bins; headroom atoms
		// backfill the neediest (most overloaded, then still-empty)
		// ones.
		binOf[ai] = assignAtom(bins, slack, &atoms[ai], key[ai] > 0, tot)
	}
	// Drop bins the greedy pass left without nodes (possible when a few
	// giant atoms absorbed everything). Empty bins tie on slack and
	// node count, so the pass fills them lowest index first: the empty
	// ones are a suffix.
	for bins[len(bins)-1].nodes == 0 {
		bins, slack = bins[:len(bins)-1], slack[:len(slack)-1]
	}
	if cv.bins = bins; len(bins) <= 1 {
		return false
	}
	// Floating cohorts (all-waiting vjobs) go where the room is.
	for _, ai := range order[numNodeAtoms:] {
		binOf[ai] = assignAtom(bins, slack, &atoms[ai], true, tot)
	}

	// Lay the names out bin by bin, nodes then VMs, in assignment order;
	// ends[bi] is where bin bi's node run and VM run end so far.
	names, ends := fit(&cv.names, len(members)), fit(&cv.ends, len(bins))
	off := int32(0)
	for bi, b := range bins {
		ends[bi], off = [2]int32{off, off + b.nodes}, off+b.nodes+b.vms
	}
	for _, ai := range order {
		end := &ends[binOf[ai]]
		for _, e := range members[start[ai]:start[ai+1]] {
			k := min(e/int32(vmBase), 1) // 0 for a node, 1 for a VM
			names[end[k]], end[k] = name(e), end[k]+1
		}
	}

	// Each rule travels with its component's bin. Linked from the last rule
	// back, a bin's list is in rule order (1 + rule index; 0 ends it).
	ruleHead, ruleNext := zeroed(&cv.ruleHead, len(bins)), fit(&cv.ruleNext, len(p.Rules))
	for i := len(p.Rules) - 1; i >= 0; i-- {
		if ai := atomOf[rootOf(int32(ruleBase+i))]; ai > 0 {
			bi := binOf[ai-1]
			ruleNext[i], ruleHead[bi] = ruleHead[bi], int32(i+1)
		}
	}
	return true
}

// slice materializes bin bi: its nodes and VMs extracted from p.Src,
// the Target entries of those VMs' vjobs, and its rules rescoped, in
// an array of their own.
func (cv *carver) slice(p Problem, bi int) (Problem, error) {
	end, b := cv.ends[bi], cv.bins[bi]
	nodes, vms := cv.names[end[0]-b.nodes:end[0]], cv.names[end[0]:end[1]]
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
	var rules []PlacementRule
	if cv.ruleHead[bi] > 0 {
		cv.vmSet, cv.nodeSet = emptied(cv.vmSet, len(vms)), emptied(cv.nodeSet, len(nodes))
		for _, n := range vms {
			cv.vmSet[n] = true
		}
		for _, n := range nodes {
			cv.nodeSet[n] = true
		}
		n := 0
		for i := cv.ruleHead[bi]; i > 0; i = cv.ruleNext[i-1] {
			n++
		}
		for i := cv.ruleHead[bi]; i > 0; i = cv.ruleNext[i-1] {
			if rr := p.Rules[i-1].Rescope(cv.vmSet, cv.nodeSet); rr != nil {
				rules = append(slices.Grow(rules, n-len(rules)), rr) // one array of n
			}
		}
	}
	return Problem{Src: sub, Target: target, Rules: slices.Clip(rules)}, nil
}

// satisfied is slice(p, bi).Satisfied() read off p.Src. The carve binds
// every VM to its host and every rule to its scope VMs and bound nodes,
// so each bin node carries the same load in p.Src as in the slice, and
// each rule of the bin sees the same hosts (PlacementRule.Check).
func (cv *carver) satisfied(p Problem, bi int) bool {
	end, b := cv.ends[bi], cv.bins[bi]
	for _, n := range cv.names[end[0]-b.nodes : end[0]] {
		if !p.Src.Used(n).Fits(p.Src.Node(n).Capacity) {
			return false
		}
	}
	for i := cv.ruleHead[bi]; i > 0; i = cv.ruleNext[i-1] {
		if p.Rules[i-1].Check(p.Src) != nil {
			return false
		}
	}
	for _, v := range cv.names[end[0]:end[1]] {
		if cur := p.Src.StateOf(v); p.wantOf(p.Src.VM(v), cur) != cur {
			return false
		}
	}
	return true
}

// dirtySlices is the carve of a wake (Loop.solveDirtySlices): it carves
// p like Split and materializes, in bin order, the bins holding a dirty
// node or VM that are not satisfied. It empties out and fills its maps
// with their coverage: every name of theirs and of the satisfied bins
// holding a cover element. It fails with errMonolithic when p does
// not split and with errNothingDirty when the coverage is empty.
func (pt Partitioner) dirtySlices(p Problem, dirtyNodes, dirtyVMs, coverNodes, coverVMs map[string]bool, out *sliceResult) ([]Problem, error) {
	sc := takeScratch()
	defer sc.release()
	cv := &sc.carve
	if !pt.carve(p, cv) {
		return nil, errMonolithic
	}
	// Bit 0 marks the bins holding a dirty node or VM, bit 1 those
	// holding a cover element; an unknown name marks nothing.
	marks := zeroed(&cv.marks, len(cv.bins))
	for bit, sets := range [2][2]map[string]bool{{dirtyNodes, dirtyVMs}, {coverNodes, coverVMs}} {
		for n := range sets[0] {
			if e := indexOf(cv.nodes, n, nodeName); e >= 0 {
				marks[cv.binOf[cv.elemAtom[e]]] |= 1 << bit
			}
		}
		for v := range sets[1] {
			if e := indexOf(cv.vms, v, vmName); e >= 0 {
				marks[cv.binOf[cv.elemAtom[len(cv.nodes)+e]]] |= 1 << bit
			}
		}
	}
	out.nodes, out.vms, out.merged = emptied(out.nodes, 0), emptied(out.vms, 0), nil
	var solve []Problem
	for bi, m := range marks {
		if m&1 == 0 {
			continue
		}
		// A satisfied slice needs no plan — its optimal plan is empty
		// — so the event storm of harmless load changes costs nothing.
		if !cv.satisfied(p, bi) {
			sub, err := cv.slice(p, bi)
			if err != nil {
				return nil, err
			}
			solve = append(solve, sub)
		} else if m&2 == 0 {
			continue
		}
		end, b := cv.ends[bi], cv.bins[bi]
		for _, n := range cv.names[end[0]-b.nodes : end[0]] {
			out.nodes[n] = true
		}
		for _, v := range cv.names[end[0]:end[1]] {
			out.vms[v] = true
		}
	}
	if len(out.nodes)+len(out.vms) == 0 {
		return nil, errNothingDirty
	}
	return solve, nil
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
		if better || (si == sb && bins[i].nodes < bins[best].nodes) {
			best = i
		}
	}
	b := &bins[best]
	b.nodes, b.vms, b.over = b.nodes+a.nodes, b.vms+a.vms, b.over.Add(a.over)
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

// newUnionFind sets *buf to n singletons (fit) and returns it.
func newUnionFind(buf *unionFind, n int) unionFind {
	u := unionFind(fit((*[]int32)(buf), n))
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
