package sim

import (
	"errors"
	"fmt"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// Invariants audits the cluster configuration after every simulation
// event and phase advance: per-node processing-unit and memory usage
// must stay within capacity and never go negative. Over-commitment that
// already exists when the watcher takes its baseline is tolerated — a
// context switch legitimately starts from a non-viable configuration —
// but any violation appearing afterwards is recorded, exactly the
// contract plan.Validate enforces statically.
//
// The baseline is captured lazily at the first audit, so tests can
// install the watcher before building the initial placement.
type Invariants struct {
	c        *Cluster
	baseline map[vjob.Violation]bool
	errs     []error
	// structural counts the subset of errs that no workload dynamics
	// can explain: negative resource usage and placements referring to
	// absent nodes. Capacity violations can legitimately appear under
	// churn (a phase shift raising demand past capacity is exactly
	// what the loop exists to fix); a structural breach always means a
	// bug in the reconfiguration machinery.
	structural int
}

// WatchInvariants attaches a watcher to the cluster and returns it.
func WatchInvariants(c *Cluster) *Invariants {
	w := &Invariants{c: c}
	c.OnAdvance(w.audit)
	return w
}

// Audit is what one simulator advance found wrong with the cluster,
// computed once per advance and handed to every OnAdvance subscriber.
// Subscribers read it during the call only: they never write it, never
// keep its slices (the next advance reuses them) and never mutate the
// cluster.
type Audit struct {
	// Violations are the capacity violations, in
	// Configuration.Violations order.
	Violations []vjob.Violation
	// Transfer are the NICs in-flight transfers oversubscribe, in
	// TransferViolations order.
	Transfer []vjob.Violation
	// Negative are the (node, dimension) pairs whose usage (Demand) is
	// below zero, in node then dimension order.
	Negative []vjob.Violation
	// Dangling are the VMs whose location names an absent node, in
	// name order.
	Dangling []*vjob.VM
}

// compute refills the audit: capacity and negative usage from one walk
// of the node ids, dangling placements from the index's keys.
func (a *Audit) compute(c *Cluster) {
	cfg := c.cfg
	a.Violations, a.Negative = a.Violations[:0], a.Negative[:0]
	c.nodes, c.usage = cfg.AppendNodes(c.nodes[:0]), cfg.AppendUsage(c.usage[:0])
	for i, n := range c.nodes {
		u := c.usage[i]
		for _, k := range resources.Kinds() {
			used, capacity := u.Get(k), n.Capacity.Get(k)
			if used > capacity {
				a.Violations = append(a.Violations, vjob.Violation{Node: n.Name, Resource: k.String(), Demand: used, Capacity: capacity})
			}
			if used < 0 {
				a.Negative = append(a.Negative, vjob.Violation{Node: n.Name, Resource: k.String(), Demand: used, Capacity: capacity})
			}
		}
	}
	a.Transfer = c.TransferViolations()
	a.Dangling = cfg.AppendDangling(a.Dangling[:0])
}

func (w *Invariants) audit(a *Audit) {
	// The shared audit already holds every breach; this only words and
	// counts them.
	// Node lifecycle (drain/offline) must never strand a placement:
	// every VM's location — hosting node or image node — has to refer
	// to a node still present in the configuration. SetNodeOffline
	// refuses non-evacuated nodes, so a dangling placement means the
	// evacuation machinery mis-stepped.
	for _, v := range a.Dangling {
		w.errs = append(w.errs, fmt.Errorf("sim: t=%.1f: %s placed on absent node %s", w.c.Now(), v.Name, w.c.Config().LocationOf(v.Name)))
		w.structural++
	}
	for _, u := range a.Negative {
		w.errs = append(w.errs, fmt.Errorf("sim: t=%.1f: node %s has negative %s usage %d", w.c.Now(), u.Node, u.Resource, u.Demand))
		w.structural++
	}
	if w.baseline == nil {
		w.baseline = make(map[vjob.Violation]bool)
		for _, v := range a.Violations {
			w.baseline[v] = true
		}
		for _, v := range a.Transfer {
			w.baseline[v] = true
		}
		return
	}
	for _, v := range a.Violations {
		if !w.baseline[v] {
			w.errs = append(w.errs, fmt.Errorf("sim: t=%.1f: %w", w.c.Now(), v))
			w.baseline[v] = true // report each new violation once
		}
	}
	// In-flight transfers squeezing a NIC past its capacity are a
	// violation too (DESIGN.md §9): the running VMs fit, but their
	// service traffic is being starved by migration streams. Counted
	// like capacity violations — the planner's transfer gating exists
	// exactly to avoid these, so a gated plan keeps this at zero.
	for _, v := range a.Transfer {
		if !w.baseline[v] {
			w.errs = append(w.errs, fmt.Errorf("sim: t=%.1f: transfer-oversubscribed NIC: %w", w.c.Now(), v))
			w.baseline[v] = true
		}
	}
}

// Err returns every recorded violation joined, or nil.
func (w *Invariants) Err() error { return errors.Join(w.errs...) }

// Count returns how many breaches were recorded, for studies that
// tabulate rather than fail.
func (w *Invariants) Count() int { return len(w.errs) }

// StructuralCount returns the breaches workload dynamics cannot
// explain (negative usage, dangling placements): studies under churn
// assert this stays zero while capacity exposure is reported as
// violation-seconds.
func (w *Invariants) StructuralCount() int { return w.structural }
