package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// costModel evaluates placement contributions including the §4.2
// sequencing delays: a VM sent to a node where it does not fit right
// now must wait for at least one release there, so its total cost is
// raised by the cheapest release cost of that node. The estimate stays
// a lower bound of the true plan cost (the actual delay is the cost of
// every preceding pool), which keeps the branch-and-bound admissible
// while steering the search towards nodes that are free immediately —
// the paper's "perform actions as early as possible".
//
// It is what compile priced every (runner, node) pair through before
// it priced them by node index, kept as the reference; only
// runContribution's argument changed since, from a node name to
// whether it is the VM's current one.
type costModel struct {
	// nodes are the candidate nodes in compile's order, and free[j]
	// the source configuration's free capacities of nodes[j], every
	// dimension at once, read once per node.
	nodes []*vjob.Node
	free  []resources.Vector
	// minRelease[node] is the cheapest cost among the actions that
	// liberate resources on the node (0 when a hosted VM is being
	// stopped; Dm for a suspend or an outbound migration); missing
	// entries mean no release is possible.
	minRelease map[string]int
}

func newCostModel(src *vjob.Configuration, goals []vmGoal, nodes []*vjob.Node) *costModel {
	m := &costModel{
		nodes:      nodes,
		free:       make([]resources.Vector, len(nodes)),
		minRelease: make(map[string]int),
	}
	for j, n := range nodes {
		m.free[j] = src.Free(n.Name)
	}
	for _, g := range goals {
		if g.cur != vjob.Running {
			continue
		}
		var rel int
		switch g.want {
		case vjob.Terminated:
			rel = 0 // stop
		default:
			rel = plan.TransferSize(g.vm) // suspend or migration away
		}
		if cur, ok := m.minRelease[g.curLoc]; !ok || rel < cur {
			m.minRelease[g.curLoc] = rel
		}
	}
	return m
}

// contribution returns the placement cost of hosting g's VM on node
// nodes[j]: the Table 1 action cost plus the sequencing delay bound.
func (m *costModel) contribution(g vmGoal, j int) int {
	node := m.nodes[j].Name
	c := g.runContribution(node == g.curLoc)
	if g.cur == vjob.Running && node == g.curLoc {
		return c // staying put: no action, no delay
	}
	if g.vm.Demand.Fits(m.free[j]) {
		return c // fits immediately: the action can start in pool 0
	}
	if rel, ok := m.minRelease[node]; ok {
		return c + rel
	}
	return c
}

// refCompiled is what refCompile builds: a compilation whose rows and
// orders are still []int, so the test compares compile's int32 table
// by value.
type refCompiled struct {
	*compiled
	rows, order [][]int
}

// refCompile is Optimizer.compile as it ran before it priced nodes by
// index, kept verbatim as the reference TestCompileMatchesReference
// compares it with: every (runner, node) pair priced through the cost
// model and every order a full stable sort.
func (o Optimizer) refCompile(p Problem) (*refCompiled, error) {
	goals, err := p.compile(nil)
	if err != nil {
		return nil, err
	}
	c := &refCompiled{compiled: &compiled{goals: goals}}
	c.nodes = p.Src.Nodes()
	model := newCostModel(p.Src, goals, c.nodes)
	c.nodeIdx = make(map[string]int, len(c.nodes))
	for i, n := range c.nodes {
		c.nodeIdx[n.Name] = i
	}

	// Runners: every VM whose destination state is Running gets an
	// assignment variable; everything else contributes fixed costs.
	for _, g := range goals {
		if g.want == vjob.Running {
			c.runners = append(c.runners, g)
		} else {
			c.fixed += g.fixedCost()
		}
	}
	// Hardest VMs first (§4.3 first-fail flavor): decreasing memory
	// then CPU demand.
	sort.SliceStable(c.runners, func(i, j int) bool {
		a, b := c.runners[i].vm, c.runners[j].vm
		if a.MemoryDemand() != b.MemoryDemand() {
			return a.MemoryDemand() > b.MemoryDemand()
		}
		if a.CPUDemand() != b.CPUDemand() {
			return a.CPUDemand() > b.CPUDemand()
		}
		return a.Name < b.Name
	})

	// Active dimensions: a resource kind some to-be-running VM actually
	// demands. Only these compile into cp.Packing instances below, so a
	// CPU+memory instance builds exactly the two constraints it always
	// did and extra registered kinds cost nothing until a workload uses
	// them.
	for _, g := range c.runners {
		for _, k := range resources.Kinds() {
			if g.vm.Demand.Get(k) > 0 {
				c.active[k] = true
			}
		}
	}

	c.allowed = make([][]int, len(c.runners))
	c.prefs = make([]int, len(c.runners))
	c.hints = make([]int, len(c.runners))
	c.rows = make([][]int, len(c.runners))
	c.order = make([][]int, len(c.runners))
	table := make([]int, len(c.runners)*len(c.nodes))
	c.maxObj = c.fixed
	for i, g := range c.runners {
		allowed := make([]int, 0, len(c.nodes))
		for j, n := range c.nodes {
			if g.vm.Demand.Fits(n.Capacity) {
				allowed = append(allowed, j)
			}
		}
		if o.PinRunning && g.cur == vjob.Running {
			if idx, ok := c.nodeIdx[g.curLoc]; ok {
				allowed = []int{idx}
			}
		}
		if len(allowed) == 0 {
			return nil, fmt.Errorf("%w: %s fits on no node", ErrNoViableConfiguration, g.vm.Name)
		}
		c.allowed[i] = allowed
		c.prefs[i] = -1
		if idx, ok := c.nodeIdx[g.curLoc]; ok {
			c.prefs[i] = idx
		}
		c.hints[i] = -1
		if o.WarmStart != nil {
			if idx, ok := c.nodeIdx[o.WarmStart.HostOf(g.vm.Name)]; ok {
				c.hints[i] = idx
			}
		}
		row := table[i*len(c.nodes) : (i+1)*len(c.nodes)]
		for _, j := range allowed {
			row[j] = model.contribution(g, j)
		}
		order := append([]int(nil), allowed...)
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(row[a], row[b]) })
		c.rows[i], c.order[i] = row, order
		c.maxObj += row[order[len(order)-1]]
	}
	return c, nil
}

// searchModel is one solver instance over a compiled problem.

// compileProblem is tableProblem with small nodes slotted between the
// others in name order, so that the larger VMs fit only some nodes, and
// with nodes that host no running VM, so that no release is possible
// there; one seed in ten adds a VM that fits no node.
func compileProblem(seed int64, extra bool) Problem {
	p := tableProblem(seed, extra)
	for i := 0; i < 1+int(seed%3); i++ {
		capacity := resources.New(1, 256*(2+i))
		if extra {
			capacity.Set(resources.NetBW, 150)
			capacity.Set(resources.DiskIO, 100)
		}
		p.Src.AddNode(vjob.NewNodeRes(fmt.Sprintf("n%02ds", 3*i+1), capacity))
	}
	if seed%10 == 9 { // a VM too large for any node: compile fails
		p.Src.AddVM(vjob.NewVMRes("huge-0", "huge", resources.New(1, 1<<20)))
		p.Target["huge"] = vjob.Running
	}
	return p
}

// TestCompileMatchesReference: on seeded 2-D and 4-D problems with
// running, sleeping and waiting VMs, nodes of different sizes and nodes
// no action frees, with and without PinRunning and a warm start, and on
// the benchmark's instances, compile builds exactly what the reference
// builds — runners, allowed nodes, rows, orders, preferred and hinted
// nodes, fixed cost and objective ceiling — or fails with it, into a
// new compiled and into one that every earlier compile refilled.
func TestCompileMatchesReference(t *testing.T) {
	var problems []Problem
	for seed := int64(0); seed < 60; seed++ {
		problems = append(problems, compileProblem(seed, seed%2 == 1))
	}
	for seed := int64(1); seed <= 3; seed++ {
		problems = append(problems, budgetedProblem(seed, 100, 300))
	}
	var partial, unreleased, sleeping, waiting, pinned, hinted, failed int
	reused := new(compiled)
	for n, p := range problems {
		var warm *vjob.Configuration
		if ffd, err := FFDPlan(Problem{Src: p.Src, Target: p.Target}); err == nil {
			warm = ffd.Dst
		}
		for _, o := range []Optimizer{{}, {PinRunning: true}, {WarmStart: warm}, {PinRunning: true, WarmStart: warm}} {
			want, wantErr := o.refCompile(p)
			var err error
			for _, into := range []*compiled{new(compiled), reused} {
				var got *compiled
				got, err = o.compile(p, into)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("problem %d %+v: error %v, reference %v", n, o, err, wantErr)
				}
				if err != nil {
					if !errors.Is(err, ErrNoViableConfiguration) {
						t.Fatal(err)
					}
					continue
				}
				same := func(a, b []vmGoal) bool {
					return slices.EqualFunc(a, b, func(x, y vmGoal) bool { return x.vm == y.vm && x.want == y.want })
				}
				switch {
				case !same(got.runners, want.runners):
					t.Fatalf("problem %d %+v: runners differ", n, o)
				case !slices.EqualFunc(got.allowed, want.allowed, slices.Equal):
					t.Fatalf("problem %d %+v: allowed %v, reference %v", n, o, got.allowed, want.allowed)
				case !slices.EqualFunc(got.rows, want.rows, sameValues):
					t.Fatalf("problem %d %+v: rows %v, reference %v", n, o, got.rows, want.rows)
				case !slices.EqualFunc(got.order, want.order, sameValues):
					t.Fatalf("problem %d %+v: orders %v, reference %v", n, o, got.order, want.order)
				case !slices.Equal(got.prefs, want.prefs) || !slices.Equal(got.hints, want.hints):
					t.Fatalf("problem %d %+v: prefs %v hints %v, reference %v %v", n, o, got.prefs, got.hints, want.prefs, want.hints)
				case got.fixed != want.fixed || got.maxObj != want.maxObj || got.active != want.active:
					t.Fatalf("problem %d %+v: fixed %d maxObj %d, reference %d %d", n, o, got.fixed, got.maxObj, want.fixed, want.maxObj)
				}
			}
			if err != nil {
				failed++
				continue
			}
			model := newCostModel(p.Src, want.goals, want.nodes)
			for _, node := range want.nodes {
				if _, ok := model.minRelease[node.Name]; !ok {
					unreleased++
				}
			}
			for i, g := range want.runners {
				if len(want.allowed[i]) < len(want.nodes) && len(want.allowed[i]) > 1 {
					partial++
				}
				switch g.cur {
				case vjob.Sleeping:
					sleeping++
				case vjob.Waiting:
					waiting++
				}
				if o.PinRunning && g.cur == vjob.Running {
					pinned++
				}
				if want.hints[i] >= 0 && want.hints[i] != want.prefs[i] {
					hinted++
				}
			}
		}
	}
	if min(partial, unreleased, sleeping, waiting, pinned, hinted, failed) < 10 {
		t.Fatalf("partial %d, unreleased %d, sleeping %d, waiting %d, pinned %d, hinted %d, failed %d: the generator no longer exercises compile",
			partial, unreleased, sleeping, waiting, pinned, hinted, failed)
	}
}

// sameValues reports whether an int32 row or order of compile holds
// the reference's values.
func sameValues(got []int32, want []int) bool {
	return slices.EqualFunc(got, want, func(g int32, w int) bool { return int(g) == w })
}
