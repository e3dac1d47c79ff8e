package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cwcs/internal/core"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
	"cwcs/internal/vjob"
)

// DrainOptions parameterizes the node-maintenance study: a cluster
// under churn receives drain orders for a fraction of its nodes (the
// control plane's POST /v1/nodes/{id}/drain path — DrainSet rules plus
// NodeDown events), the event-driven loop evacuates them, and the run
// records how long the evacuation took and what it cost in capacity
// violations. Fully emptied nodes are taken offline
// (sim.SetNodeOffline), exercising the whole lifecycle. No paper
// analogue: the paper's testbed never loses a node (§7 names
// resilience as future work).
type DrainOptions struct {
	// Churn is the cluster and workload the drain competes with.
	Churn testbed.Options
	// DrainFraction is the fraction of nodes drained at DrainAt,
	// spread evenly over the node index space.
	DrainFraction, DrainAt float64
}

// DefaultDrainOptions is the full-size scenario of `experiments drain`:
// evacuate 10% of the 500-node churn cluster, arrivals stopping at the
// drain order, with no injected action failures and the structural
// audit on.
func DefaultDrainOptions() DrainOptions {
	churn := DefaultChurnOptions()
	churn.ArrivalStop = 600
	churn.Failures = sim.FailureStorm{}
	churn.WatchInvariants = true
	return DrainOptions{Churn: churn, DrainFraction: 0.10, DrainAt: 600}
}

// DrainResult is the study's measurements. Summary.Breaches counts
// the structural sim.WatchInvariants errors — negative usage,
// placements on absent nodes (0 = the drain/offline machinery never
// corrupted the configuration); capacity overloads from churn are
// expected and measured by Summary.ViolationSeconds instead.
type DrainResult struct {
	// Nodes is the cluster size; Drained how many received the order.
	Nodes, Drained int
	// Evacuated counts drained nodes with no running VM at the end;
	// Offline the subset that emptied completely (no image either) and
	// was taken out of the configuration.
	Evacuated, Offline int
	// PinnedByImage counts drained nodes that lost every running VM
	// but still store suspended images at the end — stuck, not in
	// progress: the optimizer cannot relocate an image, so these nodes
	// never go offline until the owning vjobs resume or are withdrawn.
	// PinnedVJobs lists those owners (sorted, deduplicated) — the
	// operator's resume/withdraw targets, mirroring the control
	// plane's pinned-by-image reason on GET /v1/nodes/{id}.
	PinnedByImage int
	PinnedVJobs   []string
	// TimeToEmpty is the virtual time from DrainAt until no drained
	// node hosted a running VM, or -1 when the horizon hit first.
	TimeToEmpty float64
	testbed.Summary
}

// RunDrain replays the drain scenario: the drain competes with normal
// churn for the loop's attention. It fixes Churn.Decision
// (sched.Consolidation) and Churn.EventDriven, and runs every other
// field of Churn as given.
func RunDrain(opts DrainOptions) DrainResult {
	o := opts.Churn
	o.Decision = sched.Consolidation{}
	o.EventDriven = true
	tb := testbed.New(o)
	c, cfg := tb.Cluster, tb.Cluster.Config()
	res := DrainResult{Nodes: o.Nodes, TimeToEmpty: -1}

	// The drain orders: DrainFraction of the nodes, spread evenly.
	count := int(float64(o.Nodes)*opts.DrainFraction + 0.5)
	if count < 1 {
		count = 1
	}
	drained := spreadNodes(tb.NodeName, o.Nodes, count)
	res.Drained = len(drained)
	drainedSet := make(map[string]bool, len(drained))
	for _, n := range drained {
		drainedSet[n] = true
	}
	c.Schedule(opts.DrainAt, func() {
		for _, n := range drained {
			tb.Drain(n)
		}
	})

	// drainedLoad reports whether any drained node still hosts a
	// running VM, in one O(VMs) pass.
	drainedLoad := func() bool {
		for _, v := range cfg.VMs() {
			if cfg.StateOf(v.Name) == vjob.Running && drainedSet[cfg.HostOf(v.Name)] {
				return true
			}
		}
		return false
	}

	// Emptiness probe: a cheap periodic tick (not per-event) that
	// records time-to-empty once and then takes fully empty nodes
	// offline, notifying the loop like an operator would.
	var probe func()
	probe = func() {
		if res.TimeToEmpty >= 0 {
			return
		}
		if !drainedLoad() {
			res.TimeToEmpty = c.Now() - opts.DrainAt
			for _, n := range drained {
				if c.SetNodeOffline(n) == nil {
					res.Offline++
					tb.Feed(core.Event{Kind: core.NodeDown, At: c.Now(), Nodes: []string{n}})
				}
			}
			return
		}
		c.Schedule(c.Now()+2, probe)
	}
	c.Schedule(opts.DrainAt+2, probe)

	res.Summary = tb.Run()

	pinned := make(map[string]bool)
	for _, n := range drained {
		if len(cfg.RunningOn(n)) != 0 {
			continue
		}
		res.Evacuated++
		if sleeping := cfg.SleepingOn(n); len(sleeping) > 0 {
			res.PinnedByImage++
			for _, v := range sleeping {
				owner := v.Name
				if v.VJob != "" {
					owner = v.VJob
				}
				pinned[owner] = true
			}
		}
	}
	for owner := range pinned {
		res.PinnedVJobs = append(res.PinnedVJobs, owner)
	}
	sort.Strings(res.PinnedVJobs)
	return res
}

// DrainTable renders the study.
func DrainTable(r DrainResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Drain study — evacuate %d of %d nodes under churn (event-driven loop)\n", r.Drained, r.Nodes)
	fmt.Fprintf(&b, "%-22s %v\n", "evacuated", fmt.Sprintf("%d/%d (%d taken offline)", r.Evacuated, r.Drained, r.Offline))
	tte := "never"
	if r.TimeToEmpty >= 0 {
		tte = fmt.Sprintf("%.0f s", r.TimeToEmpty)
	}
	fmt.Fprintf(&b, "%-22s %s\n", "time-to-empty", tte)
	if r.PinnedByImage > 0 {
		fmt.Fprintf(&b, "%-22s %d node(s) pinned by suspended images of %s\n",
			"pinned-by-image", r.PinnedByImage, strings.Join(r.PinnedVJobs, ","))
	}
	fmt.Fprintf(&b, "%-22s %.0f\n", "violation-seconds", r.ViolationSeconds)
	fmt.Fprintf(&b, "%-22s %d\n", "invariant breaches", r.Breaches)
	fmt.Fprintf(&b, "%-22s %d sub-solves (%d slice, %d full), %d repairs\n",
		"solver", r.Stats.SubSolves, r.Stats.SliceSolves, r.Stats.FullSolves, r.Stats.Repairs)
	fmt.Fprintf(&b, "%-22s %d switches, %d/%d vjobs completed, end t=%.0f s\n",
		"run", r.Switches, r.Completed, r.Arrived, r.End)
	return b.String()
}

// DrainCSV renders the result for external plotting.
func DrainCSV(r DrainResult) string {
	var b strings.Builder
	b.WriteString("nodes,drained,evacuated,offline,pinned_by_image,time_to_empty,violation_seconds,invariant_breaches,sub_solves,slice_solves,full_solves,repairs,switches,events,arrived,completed,end\n")
	fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%.1f,%.1f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.0f\n",
		r.Nodes, r.Drained, r.Evacuated, r.Offline, r.PinnedByImage, r.TimeToEmpty, r.ViolationSeconds,
		r.Breaches, r.Stats.SubSolves, r.Stats.SliceSolves, r.Stats.FullSolves,
		r.Stats.Repairs, r.Switches, r.Stats.Events,
		r.Arrived, r.Completed, r.End)
	return b.String()
}
