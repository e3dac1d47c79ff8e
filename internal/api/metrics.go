package api

import (
	"fmt"
	"net/http"
	"strings"

	"cwcs/internal/obs"
	"cwcs/internal/resources"
)

// sample is one exposition line of a family: an optional rendered
// label set (`{a="b"}`) and the value.
type sample struct {
	labels string
	value  float64
}

// family is one metric family: HELP/TYPE plus its samples, emitted
// consecutively as the text exposition format requires. A family may
// mix label shapes — cwcs_violation_seconds_total carries the
// unlabeled aggregate integral and the ledger's {vjob,kind} /
// {node,kind} attribution series in one block.
type family struct {
	name, help, typ string
	samples         []sample
}

// labelEscaper escapes a label value as the text exposition format
// defines: backslash, double quote and line feed, nothing else. Every
// other rune is written raw; an escape such as \t or \u00a0 that Go's
// %q would write makes a scrape parser reject the whole page.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelPair renders one name="value" label.
func labelPair(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

// labels renders one label set in registry order.
func labels(pairs ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labelPair(pairs[i], pairs[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// metricFamilies assembles every non-histogram family the server
// exports. This is the metrics registry: handleMetrics renders
// exactly this list (plus the tracer histograms) and the exposition
// well-formedness test iterates it, so a new family cannot ship
// unrendered or untested. The loop's counters and the node gauges are
// read under one Exec, and the solver's under one Snapshot, so a
// scrape describes one instant of each.
func (s *Server) metricFamilies() []family {
	var snap statsJSON
	var gauges []nodeGauge
	s.Exec(func() { snap, gauges = s.statsLocked(), s.nodeGaugesLocked() })
	executing := 0.0
	if snap.Executing {
		executing = 1
	}
	one := func(name, help, typ string, v float64) family {
		return family{name: name, help: help, typ: typ, samples: []sample{{value: v}}}
	}
	violations := one("cwcs_violation_seconds_total", "Integral of capacity violations over virtual time; labeled series attribute it per vjob and per node by dominant consumer.", "counter", snap.ViolationSeconds)
	for _, e := range s.Ledger.VJobKinds() {
		violations.samples = append(violations.samples, sample{labels: labels("vjob", e.VJob, "kind", e.Kind), value: e.Seconds})
	}
	for _, e := range s.Ledger.NodeKinds() {
		violations.samples = append(violations.samples, sample{labels: labels("node", e.Node, "kind", e.Kind), value: e.Seconds})
	}
	breach := family{name: "cwcs_rule_breach_seconds_total", help: "Integral of structural placement-rule breaches over virtual time, per rule kind.", typ: "counter"}
	for _, e := range s.Ledger.RuleSeconds() {
		breach.samples = append(breach.samples, sample{labels: labels("rule", e.Rule), value: e.Seconds})
	}
	solver := s.Solver.Snapshot()
	wins := family{name: "cwcs_portfolio_wins_total", help: "Solves won per portfolio strategy (the strategy whose plan was returned).", typ: "counter"}
	for _, w := range solver.WinRates() {
		wins.samples = append(wins.samples, sample{labels: labels("strategy", w.Strategy), value: float64(w.Improvements)})
	}
	used := family{name: "cwcs_node_resource_used", help: "Per-node per-dimension resource demand of running VMs.", typ: "gauge"}
	capacity := family{name: "cwcs_node_resource_capacity", help: "Per-node per-dimension resource capacity.", typ: "gauge"}
	for _, g := range gauges {
		l := labels("node", g.node, "kind", g.kind)
		used.samples = append(used.samples, sample{labels: l, value: g.used})
		capacity.samples = append(capacity.samples, sample{labels: l, value: g.capacity})
	}
	info := obs.BuildInfo()
	return []family{
		one("cwcs_iterations_total", "Wake-ups that ran the decision module.", "counter", float64(snap.Loop.Iterations)),
		one("cwcs_solves_total", "Optimizer invocations (monolithic solves plus dirty-slice solves).", "counter", float64(snap.Loop.SolverCalls)),
		one("cwcs_sub_solves_total", "Independent sub-problem optimizations, the comparable solve unit.", "counter", float64(snap.Loop.SubSolves)),
		one("cwcs_slice_solves_total", "Solver invocations restricted to a dirty partition slice.", "counter", float64(snap.Loop.SliceSolves)),
		one("cwcs_full_solves_total", "Incremental iterations that fell back to the monolithic model.", "counter", float64(snap.Loop.FullSolves)),
		one("cwcs_repairs_total", "In-flight plan repairs spliced successfully.", "counter", float64(snap.Loop.Repairs)),
		one("cwcs_failed_repairs_total", "Repair attempts that fell back to a full re-solve.", "counter", float64(snap.Loop.FailedRepairs)),
		one("cwcs_widened_repairs_total", "Spliced repairs that needed region widening over a broken dependency chain.", "counter", float64(snap.Loop.WidenedRepairs)),
		one("cwcs_repair_expansions_total", "Region-widening steps across all repairs (depth = expansions/widened).", "counter", float64(snap.Loop.RepairExpansions)),
		one("cwcs_events_total", "Cluster events received by the loop.", "counter", float64(snap.Loop.Events)),
		one("cwcs_events_coalesced_total", "Events absorbed into an armed wake-up or in-flight execution.", "counter", float64(snap.Loop.Coalesced)),
		one("cwcs_switches_total", "Executed cluster-wide context switches.", "counter", float64(snap.Switches)),
		violations,
		one("cwcs_queue_depth", "VJobs in the submission queue.", "gauge", float64(snap.QueueDepth)),
		one("cwcs_draining_nodes", "Nodes currently under a drain order.", "gauge", float64(len(snap.DrainingNodes))),
		one("cwcs_executing", "1 while a context switch is executing.", "gauge", executing),
		one("cwcs_virtual_time_seconds", "Current virtual time of the cluster.", "gauge", snap.Now),
		breach,
		wins,
		one("cwcs_warm_start_hits_total", "Solves whose warm-start assignment was still viable and seeded the incumbent.", "counter", float64(solver.WarmStartHits)),
		one("cwcs_warm_start_misses_total", "Solves whose warm-start assignment no longer applied.", "counter", float64(solver.WarmStartMisses)),
		used,
		capacity,
		family{
			name: "cwcs_build_info", help: "Build metadata of the serving binary; the value is always 1.", typ: "gauge",
			samples: []sample{{labels: labels("version", info.Version, "go_version", info.GoVersion), value: 1}},
		},
		one("cwcs_watch_drops_total", "Watch events dropped (and subscribers disconnected) because a client fell behind.", "counter", float64(s.Trace.WatchDrops())),
		one("cwcs_state_watch_drops_total", "State-watch subscribers disconnected because a client fell behind.", "counter", float64(s.stateDrops.Load())),
	}
}

// nodeGauge is one labeled sample of the per-node resource gauges.
type nodeGauge struct {
	node, kind     string
	used, capacity float64
}

// nodeGaugesLocked returns one sample per node and per dimension the
// node offers (or over-uses), in node then registry order. Callers
// hold Exec.
func (s *Server) nodeGaugesLocked() []nodeGauge {
	var out []nodeGauge
	cfg := s.Config()
	for _, n := range cfg.Nodes() {
		used := cfg.Used(n.Name)
		for _, k := range resources.Kinds() {
			if n.Capacity.Get(k) == 0 && used.Get(k) == 0 {
				continue
			}
			out = append(out, nodeGauge{
				node: n.Name, kind: k.String(),
				used: float64(used.Get(k)), capacity: float64(n.Capacity.Get(k)),
			})
		}
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	for _, f := range s.metricFamilies() {
		if len(f.samples) == 0 {
			// A purely-labeled family with no series yet (e.g. no rule
			// ever breached) is withheld rather than emitting orphan
			// HELP/TYPE headers.
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, smp := range f.samples {
			fmt.Fprintf(&b, "%s%s %g\n", f.name, smp.labels, smp.value)
		}
	}
	writeHistograms(&b, s.Trace.Histograms())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
