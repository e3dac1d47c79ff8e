package monitor_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/duration"
	"cwcs/internal/monitor"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// This file keeps, as a reference model, the per-watcher recomputation
// the shared sim.Audit replaced: each watcher used to call
// Violations() and TransferViolations() itself, the invariant checker
// also built a whole-cluster FreeResources map and walked every VM,
// and the ledger found each violation's dominant consumer by walking
// every VM. The differential tests below run the reference watchers
// beside the real ones on the same simulation and demand equal results
// at every advance.

// refTransferViolations is TransferViolations as it was, reading the
// NIC residual out of a FreeResources map.
func refTransferViolations(c *sim.Cluster) []vjob.Violation {
	demands := c.TransferDemands()
	if len(demands) == 0 {
		return nil
	}
	cfg := c.Config()
	free := freeResources(cfg)
	nodes := make([]string, 0, len(demands))
	for n := range demands {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var out []vjob.Violation
	for _, name := range nodes {
		n := cfg.Node(name)
		if n == nil {
			continue
		}
		nic := n.Capacity.Get(resources.NetBW)
		residual := free[name].Get(resources.NetBW)
		if residual >= 0 && demands[name] > residual {
			out = append(out, vjob.Violation{
				Node:     name,
				Resource: resources.NetBW.String(),
				Demand:   nic - residual + demands[name],
				Capacity: nic,
			})
		}
	}
	return out
}

// refAudit recomputes what the shared audit holds, one watcher's way.
func refAudit(c *sim.Cluster) sim.Audit {
	cfg := c.Config()
	a := sim.Audit{Violations: cfg.Violations(), Transfer: refTransferViolations(c)}
	for _, v := range cfg.VMs() {
		if loc := cfg.LocationOf(v.Name); loc != "" && cfg.Node(loc) == nil {
			a.Dangling = append(a.Dangling, v)
		}
	}
	free := freeResources(cfg)
	for _, n := range cfg.Nodes() {
		for _, k := range resources.Kinds() {
			if got, cap := free[n.Name].Get(k), n.Capacity.Get(k); got > cap {
				a.Negative = append(a.Negative, vjob.Violation{Node: n.Name, Resource: k.String(), Demand: cap - got, Capacity: cap})
			}
		}
	}
	return a
}

// auditDiff names the first field where got differs from want, or "".
func auditDiff(got *sim.Audit, want sim.Audit) string {
	switch {
	case !slices.Equal(got.Violations, want.Violations):
		return fmt.Sprintf("violations %v, want %v", got.Violations, want.Violations)
	case !slices.Equal(got.Transfer, want.Transfer):
		return fmt.Sprintf("transfer violations %v, want %v", got.Transfer, want.Transfer)
	case !slices.Equal(got.Negative, want.Negative):
		return fmt.Sprintf("negative usage %v, want %v", got.Negative, want.Negative)
	case !slices.Equal(got.Dangling, want.Dangling):
		return fmt.Sprintf("dangling %v, want %v", got.Dangling, want.Dangling)
	}
	return ""
}

// refDominant is the ledger's dominant-consumer attribution as a walk
// of every VM: for every violated (node, dimension), the vjob of the
// running VM with the largest demand there, smallest VM name on ties.
func refDominant(cfg *vjob.Configuration, viols []vjob.Violation) map[[2]string]string {
	if len(viols) == 0 {
		return nil
	}
	kinds := make(map[string][]resources.Kind, len(viols))
	for _, v := range viols {
		if k, err := resources.ParseKind(v.Resource); err == nil {
			kinds[v.Node] = append(kinds[v.Node], k)
		}
	}
	type top struct {
		demand int
		vm     string
		owner  string
	}
	best := make(map[[2]string]top, len(viols))
	for _, vm := range cfg.VMs() {
		if cfg.StateOf(vm.Name) != vjob.Running {
			continue
		}
		host := cfg.HostOf(vm.Name)
		ks, hot := kinds[host]
		if !hot {
			continue
		}
		for _, k := range ks {
			d := vm.Demand.Get(k)
			if d == 0 {
				continue
			}
			key := [2]string{host, k.String()}
			cur, ok := best[key]
			if !ok || d > cur.demand || (d == cur.demand && vm.Name < cur.vm) {
				owner := vm.VJob
				if owner == "" {
					owner = vm.Name
				}
				best[key] = top{demand: d, vm: vm.Name, owner: owner}
			}
		}
	}
	out := make(map[[2]string]string, len(best))
	for key, t := range best {
		out[key] = t.owner
	}
	return out
}

// refWatchers are the ledger, recovery log and invariant checker
// recomputing everything at every advance, as they did.
type refWatchers struct {
	atoms   map[monitor.Attribution]float64
	lastT   float64
	pending []monitor.Attribution

	recovery monitor.RecoveryLog

	baseline   map[vjob.Violation]bool
	errs       []error
	structural int
}

func watchReference(c *sim.Cluster) *refWatchers {
	r := &refWatchers{atoms: make(map[monitor.Attribution]float64)}
	c.OnAdvance(func(*sim.Audit) {
		r.ledger(c)
		r.recover(c)
		r.invariants(c)
	})
	return r
}

func (r *refWatchers) ledger(c *sim.Cluster) {
	if now := c.Now(); now > r.lastT {
		dt := now - r.lastT
		for _, k := range r.pending {
			r.atoms[k] += dt
		}
		r.lastT = now
	}
	cfg := c.Config()
	viols := cfg.Violations()
	tviols := refTransferViolations(c)
	r.pending = nil
	dom := refDominant(cfg, viols)
	for _, v := range viols {
		r.pending = append(r.pending, monitor.Attribution{VJob: dom[[2]string{v.Node, v.Resource}], Node: v.Node, Kind: v.Resource})
	}
	for _, v := range tviols {
		r.pending = append(r.pending, monitor.Attribution{VJob: monitor.TransferVJob, Node: v.Node, Kind: v.Resource})
	}
}

func (r *refWatchers) recover(c *sim.Cluster) {
	viol := len(c.Config().Violations()) + len(refTransferViolations(c))
	switch l := &r.recovery; {
	case viol > 0 && !l.Open:
		l.Open = true
		l.OpenSince = c.Now()
	case viol == 0 && l.Open:
		l.CloseAt(c.Now())
	}
}

func (r *refWatchers) invariants(c *sim.Cluster) {
	cfg := c.Config()
	for _, v := range cfg.VMs() {
		if loc := cfg.LocationOf(v.Name); loc != "" && cfg.Node(loc) == nil {
			r.errs = append(r.errs, fmt.Errorf("sim: t=%.1f: %s placed on absent node %s", c.Now(), v.Name, loc))
			r.structural++
		}
	}
	free := freeResources(cfg)
	for _, n := range cfg.Nodes() {
		for _, k := range resources.Kinds() {
			if got, cap := free[n.Name].Get(k), n.Capacity.Get(k); got > cap {
				r.errs = append(r.errs, fmt.Errorf("sim: t=%.1f: node %s has negative %s usage %d", c.Now(), n.Name, k, cap-got))
				r.structural++
			}
		}
	}
	if r.baseline == nil {
		r.baseline = make(map[vjob.Violation]bool)
		for _, v := range cfg.Violations() {
			r.baseline[v] = true
		}
		for _, v := range refTransferViolations(c) {
			r.baseline[v] = true
		}
		return
	}
	for _, v := range cfg.Violations() {
		if !r.baseline[v] {
			r.errs = append(r.errs, fmt.Errorf("sim: t=%.1f: %w", c.Now(), v))
			r.baseline[v] = true
		}
	}
	for _, v := range refTransferViolations(c) {
		if !r.baseline[v] {
			r.errs = append(r.errs, fmt.Errorf("sim: t=%.1f: transfer-oversubscribed NIC: %w", c.Now(), v))
			r.baseline[v] = true
		}
	}
}

// differential attaches the real watchers, the reference ones and a
// per-advance comparison of the shared audit to the cluster; check
// then compares what the watchers accumulated.
type differential struct {
	ledger   *monitor.Ledger
	recovery *monitor.RecoveryLog
	inv      *sim.Invariants
	ref      *refWatchers
	advances int
	diff     string
	// seen counts the advances whose audit held capacity violations,
	// transfer violations and negative usage.
	seen [3]int
}

func watchDifferential(c *sim.Cluster) *differential {
	d := &differential{ledger: monitor.WatchLedger(c, nil), recovery: monitor.WatchRecovery(c), inv: sim.WatchInvariants(c)}
	c.OnAdvance(func(a *sim.Audit) {
		d.advances++
		for i, n := range []int{len(a.Violations), len(a.Transfer), len(a.Negative)} {
			if n > 0 {
				d.seen[i]++
			}
		}
		if d.diff == "" {
			if diff := auditDiff(a, refAudit(c)); diff != "" {
				d.diff = fmt.Sprintf("t=%.3f, advance %d: %s", c.Now(), d.advances, diff)
			}
		}
	})
	d.ref = watchReference(c)
	return d
}

func (d *differential) check(t *testing.T, what string) {
	t.Helper()
	if d.diff != "" {
		t.Fatalf("%s: shared audit differs from the reference at %s", what, d.diff)
	}
	var want []monitor.Entry
	for k, sec := range d.ref.atoms {
		want = append(want, monitor.Entry{VJob: k.VJob, Node: k.Node, Kind: k.Kind, Seconds: sec})
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.VJob != b.VJob {
			return a.VJob < b.VJob
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
	if got := d.ledger.Atoms(); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
		t.Fatalf("%s: ledger atoms\n%v\nwant\n%v", what, got, want)
	}
	if got, want := *d.recovery, d.ref.recovery; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: recovery log %+v, want %+v", what, got, want)
	}
	if got, want := fmt.Sprint(d.inv.Err()), fmt.Sprint(errors.Join(d.ref.errs...)); got != want {
		t.Fatalf("%s: invariant errors\n%s\nwant\n%s", what, got, want)
	}
	if d.inv.Count() != len(d.ref.errs) || d.inv.StructuralCount() != d.ref.structural {
		t.Fatalf("%s: %d breaches (%d structural), want %d (%d)", what,
			d.inv.Count(), d.inv.StructuralCount(), len(d.ref.errs), d.ref.structural)
	}
}

// TestAuditMatchesReference runs seeded loop scenarios — failure
// storms, a drain that takes nodes offline and back, and a metered
// transfer plan — and holds the shared audit, and every watcher
// reading it, to the reference at every advance. The storms also
// write a negative demand for a while, so the structural checks have
// something to find.
func TestAuditMatchesReference(t *testing.T) {
	var seen [3]int
	for seed := int64(1); seed <= 24; seed++ {
		var d *differential
		what := ""
		switch seed % 3 {
		case 0:
			what, d = fmt.Sprintf("storm seed %d", seed), runStorm(seed)
		case 1:
			what, d = fmt.Sprintf("drain seed %d", seed), runDrain(seed)
		case 2:
			what, d = fmt.Sprintf("transfers seed %d", seed), runTransfers(t, seed)
		}
		d.check(t, what)
		t.Logf("%s: %d advances, %d with violations, %d with transfer violations, %d with negative usage, %d breaches",
			what, d.advances, d.seen[0], d.seen[1], d.seen[2], d.inv.Count())
		for i := range seen {
			seen[i] += d.seen[i]
		}
	}
	// The scenarios must reach every part of the audit, or agreeing
	// with the reference proves nothing.
	for i, what := range []string{"capacity violations", "transfer violations", "negative usage"} {
		if seen[i] == 0 {
			t.Errorf("no scenario produced %s", what)
		}
	}
}

func loopOptions(seed int64) testbed.Options {
	return testbed.Options{
		Nodes: 16, NodeCPU: 2, NodeMemory: 4096,
		VJobs: 4, VMsPerVJob: 3,
		WorkScale:   0.05,
		ArrivalRate: 0.02, ArrivalStop: 300,
		Seed:        seed,
		Decision:    sched.Consolidation{},
		Optimizer:   core.Optimizer{Timeout: time.Minute, Workers: 1},
		EventDriven: true,
		Debounce:    2,
		Horizon:     600,
	}
}

// runStorm is the churn study's failure storm, with one running VM's
// net demand driven below zero between t=40 and t=60.
func runStorm(seed int64) *differential {
	o := loopOptions(seed)
	o.Failures = sim.FailureStorm{Base: 0.05, Storm: 0.5, From: 20, Until: 80}
	tb := testbed.New(o)
	d := watchDifferential(tb.Cluster)
	c := tb.Cluster
	var bent *vjob.VM
	c.Schedule(40, func() {
		if running := c.Config().InState(vjob.Running); len(running) > 0 {
			bent = running[int(seed)%len(running)]
			bent.Demand.Set(resources.NetBW, -1)
		}
	})
	c.Schedule(60, func() {
		if bent != nil {
			bent.Demand.Set(resources.NetBW, 0)
		}
	})
	tb.Run()
	return d
}

// runDrain drains two nodes, takes them offline once empty, and
// brings them back.
func runDrain(seed int64) *differential {
	tb := testbed.New(loopOptions(seed))
	d := watchDifferential(tb.Cluster)
	c := tb.Cluster
	drained := []string{tb.NodeName(1), tb.NodeName(2 + int(seed%14))}
	c.Schedule(20, func() {
		for _, n := range drained {
			tb.Drain(n)
		}
	})
	var probe func()
	probe = func() {
		offline := 0
		for _, n := range drained {
			if c.SetNodeOffline(n) == nil {
				offline++
			}
		}
		if offline < len(drained) && c.Now() < 200 {
			c.Schedule(c.Now()+2, probe)
			return
		}
		c.Schedule(c.Now()+30, func() {
			for _, n := range drained {
				if c.SetNodeOnline(n) == nil {
					tb.Undrain(n)
				}
			}
		})
	}
	c.Schedule(22, probe)
	tb.Run()
	return d
}

// runTransfers executes a transfer-blind plan on a NIC-metered cluster
// with a slow rack, as the migration study does: concurrent streams
// oversubscribe NICs.
func runTransfers(t *testing.T, seed int64) *differential {
	t.Helper()
	g := workload.GenerateConfiguration(rand.New(rand.NewSource(seed)), workload.GenerateOptions{
		Nodes:   24,
		NodeCPU: 2, NodeMemory: 4096,
		NodeNet:         workload.DefaultNodeNet,
		NICPoorFraction: 0.25, NICPoorNet: 100,
		VMs: 36,
	})
	opt := core.Optimizer{Timeout: 2 * time.Second, Workers: 1, Builder: plan.Builder{DisableTransferGating: true}}
	r, err := opt.Solve(core.Problem{Src: g.Cfg, Target: sched.Consolidation{}.Decide(g.Cfg, g.Jobs)})
	if err != nil {
		t.Fatalf("transfers seed %d: %v", seed, err)
	}
	c := sim.New(g.Cfg, duration.Default())
	d := watchDifferential(c)
	drivers.Start(c, r.Plan, drivers.Callbacks{})
	c.Run(100_000)
	return d
}

// FuzzAdvanceAudit drives a small NIC-metered cluster through random
// node and VM churn, state changes, demand writes (negative ones
// included), phases and transfers, and holds the shared audit and its
// watchers to the reference at every advance.
func FuzzAdvanceAudit(f *testing.F) {
	f.Add([]byte{2, 0, 1, 3, 0, 0, 4, 1, 1, 9, 5, 0, 2, 7, 8, 0, 1, 9})
	f.Add([]byte{2, 1, 3, 2, 2, 5, 3, 1, 0, 3, 2, 1, 6, 1, 2, 9, 9, 9, 6, 2, 0, 7, 9})
	f.Add([]byte{2, 0, 2, 3, 0, 1, 2, 1, 2, 3, 1, 1, 5, 0, 0, 250, 5, 1, 1, 251, 9, 7, 1, 0})
	f.Add([]byte{2, 0, 5, 3, 0, 0, 2, 1, 5, 3, 1, 0, 5, 1, 3, 14, 5, 0, 3, 20, 6, 0, 1, 9, 4, 1, 9, 1, 2, 9})
	f.Add([]byte{2, 3, 2, 4, 2, 5, 3, 0, 3, 3, 1, 3, 3, 2, 3, 5, 0, 0, 9, 5, 1, 0, 9, 5, 2, 0, 9, 9})
	// Two overloaded nodes owned by different vjobs, a negative net
	// demand, a migration and a node going offline and back.
	f.Add([]byte{2, 0, 0, 2, 1, 1, 2, 2, 2, 2, 3, 0, 3, 0, 0, 3, 1, 0, 3, 2, 1, 3, 3, 1,
		5, 1, 0, 3, 5, 2, 0, 4, 7, 0, 9, 5, 5, 0, 3, 253, 9, 3, 6, 2, 3, 9, 10, 0, 2, 1, 2, 4, 3, 2, 9, 4})
	// A tie on demand broken by VM name, on two dimensions of one node.
	f.Add([]byte{2, 4, 1, 2, 5, 2, 3, 4, 2, 3, 5, 2, 5, 4, 0, 3, 5, 5, 0, 3, 5, 5, 2, 6, 5, 4, 2, 6,
		9, 2, 6, 4, 0, 9, 30})
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := vjob.NewConfiguration()
		names := [...]string{"n0", "n1", "n2", "n3"}
		for i, n := range names {
			capacity := resources.New(2+i%2, 2048)
			capacity.Set(resources.NetBW, 100*(i+1))
			cfg.AddNode(vjob.NewNodeRes(n, capacity))
		}
		c := sim.New(cfg, duration.Default())
		d := watchDifferential(c)
		node := func(b byte) string { return names[int(b)%len(names)] }
		vm := func(b byte) string { return fmt.Sprintf("v%d", b%6) }
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 {
			switch next() % 10 {
			case 0:
				_ = c.SetNodeOffline(node(next()))
			case 1:
				_ = c.SetNodeOnline(node(next()))
			case 2:
				name, owner := vm(next()), next()
				if cfg.VM(name) == nil {
					v := vjob.NewVM(name, fmt.Sprintf("j%d", owner%3), 1, 256)
					v.Demand.Set(resources.NetBW, 20)
					cfg.AddVM(v)
				}
			case 3:
				name, n := vm(next()), node(next())
				_ = cfg.SetRunning(name, n)
			case 4:
				name, n := vm(next()), node(next())
				_ = cfg.SetSleeping(name, n)
			case 5:
				name, k, x := vm(next()), next(), next()
				if v := cfg.VM(name); v != nil {
					kinds := resources.Kinds()
					v.Demand.Set(kinds[int(k)%len(kinds)], int(int8(x))%8)
				}
			case 6:
				name, n := vm(next()), node(next())
				if v := cfg.VM(name); v != nil && cfg.HostOf(name) != "" {
					c.StartAction(&plan.Migration{Machine: v, Src: cfg.HostOf(name), Dst: n}, nil)
				}
			case 7:
				name := vm(next())
				if cfg.VM(name) != nil {
					c.SetWorkload(name, []sim.Phase{{CPU: 1, Seconds: 3}, {CPU: 2, Seconds: 2}, {CPU: 0, Seconds: 1}})
				}
			case 8:
				cfg.RemoveVM(vm(next()))
			case 9:
				c.Run(c.Now() + float64(next()%20))
			}
			if d.diff != "" {
				break
			}
		}
		c.Run(c.Now() + 1000)
		d.check(t, "fuzz")
	})
}

// freeResources is the whole-cluster free map, by node name, that
// vjob.Configuration.FreeResources built before the configuration
// stored dense ids; the reference below reads it as it did then.
func freeResources(c *vjob.Configuration) map[string]resources.Vector {
	free := make(map[string]resources.Vector, c.NumNodes())
	for _, n := range c.Nodes() {
		free[n.Name] = c.Free(n.Name)
	}
	return free
}
