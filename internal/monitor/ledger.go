package monitor

import (
	"sort"
	"sync"

	"cwcs/internal/core"
	"cwcs/internal/resources"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// TransferVJob is the pseudo-vjob charged with transfer-born NIC
// violations (sim.TransferViolations): migration streams starving a
// node's service traffic are exposure no single guest caused, so they
// get their own ledger row instead of polluting a real vjob's.
const TransferVJob = "(transfers)"

// Attribution keys one ledger atom: the vjob charged, the violated
// node and the over-committed resource dimension.
type Attribution struct {
	VJob string
	Node string
	Kind string
}

// Entry is one aggregated attribution row, as served by GET
// /v1/violations and the labeled /metrics counters. Fields not part of
// the aggregation level are empty (a per-vjob total has no Node).
type Entry struct {
	VJob    string  `json:"vjob,omitempty"`
	Node    string  `json:"node,omitempty"`
	Kind    string  `json:"kind,omitempty"`
	Seconds float64 `json:"seconds"`
}

// RuleEntry is one rule kind's structural-breach integral.
type RuleEntry struct {
	Rule    string  `json:"rule"`
	Seconds float64 `json:"seconds"`
}

// Summary is one ranked row of a top-K query: the entity's total
// violation-seconds plus its per-dimension breakdown.
type Summary struct {
	VJob    string             `json:"vjob,omitempty"`
	Node    string             `json:"node,omitempty"`
	Seconds float64            `json:"seconds"`
	Kinds   map[string]float64 `json:"kinds,omitempty"`
}

// Ledger attributes violation-seconds — the number of capacity
// violations integrated over virtual time, the cumulative exposure
// metric of the studies and of /metrics — to entities. It integrates
// atoms keyed (vjob, node, kind): every violated (node, dimension)
// interval charges its full duration to exactly one vjob — the dominant
// consumer, the running VM with the largest demand on the violated
// dimension (smallest name on ties), resolved to its owning vjob — so
// per-vjob, per-node and per-dimension sums all reconcile with the
// aggregate by construction. In-flight transfers oversubscribing a NIC
// count too (sim.TransferViolations) — a node whose guests fit but
// whose service traffic is starved by migration streams is exposure
// just like an overloaded node — and charge TransferVJob. When a rule
// source is attached, breached placement rules
// (Spread/Fence/Gather/Drained/Ban) additionally integrate
// per-rule-kind breach-seconds on the same clock.
//
// The violation set observed at one advance is integrated over the
// interval up to the next advance. A nil *Ledger is inert — every
// method is nil-safe and free — mirroring the obs tracer discipline.
//
// The ledger locks around its state, so HTTP handlers may read it
// while the simulation advances; reads never block the sim for longer
// than a map copy.
type Ledger struct {
	mu      sync.Mutex
	atoms   map[Attribution]float64
	rules   map[string]float64
	rulesFn func() []core.PlacementRule

	lastT        float64
	pending      []Attribution
	pendingRules []string
}

// WatchLedger attaches a new attribution ledger to the cluster: every
// simulation advance integrates the previously observed violation set
// and re-samples. rules, when non-nil, supplies the placement rules
// whose structural breaches are integrated per rule kind (the loop's
// administrator rules plus the live drain rules).
func WatchLedger(c *sim.Cluster, rules func() []core.PlacementRule) *Ledger {
	l := &Ledger{
		atoms:   make(map[Attribution]float64),
		rules:   make(map[string]float64),
		rulesFn: rules,
	}
	c.OnAdvance(func(a *sim.Audit) { l.advance(c, a) })
	return l
}

// advance charges the pending violation set over the elapsed interval,
// then re-samples the current one: time must strictly move, and the
// set sampled *before* an interval is the one integrated over it.
func (l *Ledger) advance(c *sim.Cluster, a *sim.Audit) {
	now := c.Now()
	l.mu.Lock()
	if now > l.lastT {
		dt := now - l.lastT
		for _, k := range l.pending {
			l.atoms[k] += dt
		}
		for _, r := range l.pendingRules {
			l.rules[r] += dt
		}
		l.lastT = now
	}
	l.mu.Unlock()
	l.sample(c.Config(), a)
}

// sample records the advance's violation set (with its
// dominant-consumer attribution) and the breached rule kinds as the
// charges of the next interval. Without violations or rules it
// allocates nothing.
func (l *Ledger) sample(cfg *vjob.Configuration, a *sim.Audit) {
	viols, tviols := a.Violations, a.Transfer
	var pending []Attribution
	if n := len(viols) + len(tviols); n > 0 {
		pending = make([]Attribution, 0, n)
		dom := dominantConsumers(cfg, viols)
		for _, v := range viols {
			pending = append(pending, Attribution{
				VJob: dom[nodeDim{v.Node, v.Resource}],
				Node: v.Node,
				Kind: v.Resource,
			})
		}
		for _, v := range tviols {
			pending = append(pending, Attribution{VJob: TransferVJob, Node: v.Node, Kind: v.Resource})
		}
	}
	var breached []string
	if l.rulesFn != nil {
		for _, r := range l.rulesFn() {
			if r.Check(cfg) != nil {
				breached = append(breached, RuleKind(r))
			}
		}
	}
	l.mu.Lock()
	l.pending, l.pendingRules = pending, breached
	l.mu.Unlock()
}

// nodeDim keys a violation by node and dimension.
type nodeDim struct{ node, kind string }

// dominantConsumers resolves, for every violated (node, dimension),
// the vjob of the running VM with the largest demand on that
// dimension (smallest VM name on ties; the VM's own name when it has
// no vjob). It reads only the violated nodes' running VMs.
func dominantConsumers(cfg *vjob.Configuration, viols []vjob.Violation) map[nodeDim]string {
	if len(viols) == 0 {
		return nil
	}
	out := make(map[nodeDim]string, len(viols))
	var running []*vjob.VM
	for i, v := range viols {
		if i == 0 || v.Node != viols[i-1].Node {
			running = cfg.RunningOn(v.Node)
		}
		k, ok := kindByName(v.Resource)
		if !ok {
			continue
		}
		var top *vjob.VM
		for _, vm := range running {
			d := vm.Demand.Get(k)
			if d != 0 && (top == nil || d > top.Demand.Get(k) || (d == top.Demand.Get(k) && vm.Name < top.Name)) {
				top = vm
			}
		}
		if top != nil {
			owner := top.VJob
			if owner == "" {
				owner = top.Name
			}
			out[nodeDim{v.Node, v.Resource}] = owner
		}
	}
	return out
}

// kindByName resolves a violation's wire name back to its registered
// resource kind.
func kindByName(name string) (resources.Kind, bool) {
	for _, k := range resources.Kinds() {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// RuleKind names a placement rule's kind for attribution ("spread",
// "fence", "gather", "drained", "ban"; "other" for host-defined
// rules).
func RuleKind(r core.PlacementRule) string {
	switch r.(type) {
	case core.Spread, *core.Spread:
		return "spread"
	case core.Fence, *core.Fence:
		return "fence"
	case core.Gather, *core.Gather:
		return "gather"
	case core.Drained, *core.Drained:
		return "drained"
	case core.Ban, *core.Ban:
		return "ban"
	default:
		return "other"
	}
}

// snapshot copies the atoms in canonical (vjob, node, kind) order.
func (l *Ledger) snapshot() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Entry, 0, len(l.atoms))
	for k, sec := range l.atoms {
		out = append(out, Entry{VJob: k.VJob, Node: k.Node, Kind: k.Kind, Seconds: sec})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.VJob != b.VJob {
			return a.VJob < b.VJob
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
	return out
}

// Atoms returns the finest-grain ledger rows — one per charged (vjob,
// node, kind) — in canonical (vjob, node, kind) order. Every
// aggregation below folds these same values, so regrouped sums differ
// from the aggregate only by the float fold order each accessor
// documents.
func (l *Ledger) Atoms() []Entry { return l.snapshot() }

// VJobTotals returns one row per charged vjob, name-sorted. Each
// total folds the vjob's atoms in canonical (node, kind) order, and
// Total folds these rows in this exact order — so
// sum(VJobTotals().Seconds) == Total() bitwise, the conservation
// property the attribution test pins.
func (l *Ledger) VJobTotals() []Entry {
	return foldBy(l.snapshot(), func(e Entry) Entry { return Entry{VJob: e.VJob} })
}

// VJobKinds returns one row per (vjob, dimension), vjob-major — the
// cwcs_violation_seconds_total{vjob,kind} samples.
func (l *Ledger) VJobKinds() []Entry {
	return foldBy(l.snapshot(), func(e Entry) Entry { return Entry{VJob: e.VJob, Kind: e.Kind} })
}

// NodeKinds returns one row per (node, dimension), node-major — the
// cwcs_violation_seconds_total{node,kind} samples. Each row folds its
// atoms in canonical vjob order.
func (l *Ledger) NodeKinds() []Entry {
	out := foldBy(l.snapshot(), func(e Entry) Entry { return Entry{Node: e.Node, Kind: e.Kind} })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// NodeTotals returns one row per charged node, name-sorted, each
// folding the node's atoms in canonical order.
func (l *Ledger) NodeTotals() []Entry {
	out := foldBy(l.snapshot(), func(e Entry) Entry { return Entry{Node: e.Node} })
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// foldBy sums canonical-order atoms into one row per projection key,
// preserving first-seen (canonical) row order.
func foldBy(atoms []Entry, key func(Entry) Entry) []Entry {
	if len(atoms) == 0 {
		return nil // keeps the nil-ledger accessors allocation-free
	}
	var out []Entry
	idx := make(map[Entry]int)
	for _, a := range atoms {
		k := key(a)
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, k)
		}
		out[i].Seconds += a.Seconds
	}
	return out
}

// Total returns the aggregate violation-seconds integral: the fold of
// VJobTotals in its (name-sorted) order — the per-entity decomposition
// and the aggregate are the same numbers grouped the same way.
func (l *Ledger) Total() float64 {
	total := 0.0
	for _, e := range l.VJobTotals() {
		total += e.Seconds
	}
	return total
}

// TransferSeconds returns the share charged to in-flight transfers.
func (l *Ledger) TransferSeconds() float64 {
	total := 0.0
	for _, e := range l.VJobTotals() {
		if e.VJob == TransferVJob {
			total += e.Seconds
		}
	}
	return total
}

// RuleSeconds returns the per-rule-kind structural-breach integrals,
// rule-name sorted. Empty without an attached rule source or when no
// rule ever broke.
func (l *Ledger) RuleSeconds() []RuleEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]RuleEntry, 0, len(l.rules))
	for r, sec := range l.rules {
		out = append(out, RuleEntry{Rule: r, Seconds: sec})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// RuleBreachSeconds sums RuleSeconds across rule kinds.
func (l *Ledger) RuleBreachSeconds() float64 {
	total := 0.0
	for _, e := range l.RuleSeconds() {
		total += e.Seconds
	}
	return total
}

// TopVJobs ranks the charged vjobs by violation-seconds (descending,
// name ascending on ties) with per-dimension breakdowns, truncated to
// k rows (all when k <= 0).
func (l *Ledger) TopVJobs(k int) []Summary {
	return topBy(l.VJobKinds(), k, func(e Entry) string { return e.VJob }, func(name string) Summary { return Summary{VJob: name} })
}

// TopNodes ranks the violated nodes the same way.
func (l *Ledger) TopNodes(k int) []Summary {
	return topBy(l.NodeKinds(), k, func(e Entry) string { return e.Node }, func(name string) Summary { return Summary{Node: name} })
}

// topBy groups per-dimension rows by entity, ranks and truncates.
func topBy(rows []Entry, k int, key func(Entry) string, mk func(string) Summary) []Summary {
	if len(rows) == 0 {
		return nil // keeps the nil-ledger accessors allocation-free
	}
	var out []Summary
	idx := make(map[string]int)
	for _, r := range rows {
		name := key(r)
		i, ok := idx[name]
		if !ok {
			i = len(out)
			idx[name] = i
			s := mk(name)
			s.Kinds = make(map[string]float64)
			out = append(out, s)
		}
		out[i].Seconds += r.Seconds
		out[i].Kinds[r.Kind] += r.Seconds
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].VJob+out[i].Node < out[j].VJob+out[j].Node
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
