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

func (w *Invariants) audit() {
	cfg := w.c.Config()
	// One O(nodes + VMs) pass, since the audit runs after every event.
	// Usage above capacity is Violations' business; usage below zero means
	// free above capacity.
	// Node lifecycle (drain/offline) must never strand a placement:
	// every VM's location — hosting node or image node — has to refer
	// to a node still present in the configuration. SetNodeOffline
	// refuses non-evacuated nodes, so a dangling placement means the
	// evacuation machinery mis-stepped.
	for _, v := range cfg.VMs() {
		if loc := cfg.LocationOf(v.Name); loc != "" && cfg.Node(loc) == nil {
			w.errs = append(w.errs, fmt.Errorf("sim: t=%.1f: %s placed on absent node %s", w.c.Now(), v.Name, loc))
			w.structural++
		}
	}
	free := cfg.FreeResources()
	for _, n := range cfg.Nodes() {
		for _, k := range resources.Kinds() {
			if got, cap := free[n.Name].Get(k), n.Capacity.Get(k); got > cap {
				w.errs = append(w.errs, fmt.Errorf("sim: t=%.1f: node %s has negative %s usage %d", w.c.Now(), n.Name, k, cap-got))
				w.structural++
			}
		}
	}
	if w.baseline == nil {
		w.baseline = make(map[vjob.Violation]bool)
		for _, v := range cfg.Violations() {
			w.baseline[v] = true
		}
		for _, v := range w.c.TransferViolations() {
			w.baseline[v] = true
		}
		return
	}
	for _, v := range cfg.Violations() {
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
	for _, v := range w.c.TransferViolations() {
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
