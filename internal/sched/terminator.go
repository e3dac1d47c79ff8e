package sched

import "cwcs/internal/vjob"

// Module is a decision module as the control loop calls one. It is
// core.DecisionModule restated: core's tests import this package, so
// this package cannot import core.
type Module interface {
	Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State
}

// Terminator wraps a decision module: once a vjob's application has
// finished it signals Entropy to stop the vjob (§5.2). Terminations
// are issued on their own round so freeing resources never depends on
// the feasibility of the rest of the decision.
type Terminator struct {
	Inner Module
	// Finished reports whether the vjob's application has completed
	// (sim.Cluster.VJobDone for a simulated cluster).
	Finished func(*vjob.VJob) bool
	// Jobs lists every vjob submitted so far — a finished one has left
	// the loop's queue but still holds its VMs. It is read at every
	// decision, so vjobs submitted at run time are seen.
	Jobs func() []*vjob.VJob
}

// Decide hands the unfinished part of the queue to the inner module,
// then decides the finished vjobs itself.
func (t Terminator) Decide(cfg *vjob.Configuration, queue []*vjob.VJob) map[string]vjob.State {
	var live []*vjob.VJob
	for _, j := range queue {
		if !t.Finished(j) {
			live = append(live, j)
		}
	}
	target := t.Inner.Decide(cfg, live)
	for _, j := range t.Jobs() {
		if !t.Finished(j) {
			continue
		}
		present, allRunning := false, true
		for _, v := range j.VMs {
			if cfg.VM(v.Name) == nil {
				continue
			}
			present = true
			if cfg.StateOf(v.Name) != vjob.Running {
				allRunning = false
			}
		}
		switch {
		case !present:
			// already reaped
		case allRunning:
			// Stop actions free the finished vjob's resources in the
			// same context switch that redistributes them.
			target[j.Name] = vjob.Terminated
		default:
			// A VM was suspended after finishing its work: the life
			// cycle only allows Sleeping -> Running -> Terminated, so
			// resume first and stop on a later round.
			target[j.Name] = vjob.Running
		}
	}
	return target
}
