package core

import (
	"testing"

	"cwcs/internal/obs"
)

// spansByKind indexes a span stream for assertions.
func spansByKind(spans []obs.SpanRecord) map[string][]obs.SpanRecord {
	out := map[string][]obs.SpanRecord{}
	for _, s := range spans {
		out[s.Kind] = append(out[s.Kind], s)
	}
	return out
}

// TestLoopTraceSpansEndToEnd replays the dirty-slice scenario with a
// tracer attached and checks the causal span chain the pipeline must
// emit: one reconfiguration span rooted at the arrival event, with
// debounce, wake, carve and solve children all carrying its cause ID,
// closed when the loop goes idle again.
func TestLoopTraceSpansEndToEnd(t *testing.T) {
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	tr := obs.NewTracer(256)
	l.Trace = tr
	l.Start(a)
	a.run(4)

	a.Schedule(5, func() {
		arrive(t, cfg, "a2", "ja", "n00")
		l.Notify(a, Event{Kind: VMArrival, At: a.Now(), Nodes: []string{"n00"}, VMs: []string{"a2"}})
	})
	a.run(40)

	if !cfg.Viable() {
		t.Fatalf("cluster still non-viable: %v", cfg.Violations())
	}
	if got := tr.Cause(); got != 0 {
		t.Fatalf("loop idle but cause still %d: reconfiguration span not closed", got)
	}

	byKind := spansByKind(tr.Recent(0))
	recs := byKind["reconfig"]
	if len(recs) != 1 {
		t.Fatalf("reconfig spans = %d, want 1 (one causal episode)", len(recs))
	}
	root := recs[0]
	if root.Name != VMArrival.String() {
		t.Errorf("reconfig span name = %q, want the triggering event kind %q", root.Name, VMArrival.String())
	}
	if root.Events < 1 {
		t.Errorf("reconfig span events = %d, want >= 1", root.Events)
	}
	if root.Cause != root.ID {
		t.Errorf("reconfig span must self-cause: id=%d cause=%d", root.ID, root.Cause)
	}
	if root.VirtStart < 5 || root.VirtEnd <= root.VirtStart {
		t.Errorf("reconfig span bounds [%g, %g] do not cover the episode", root.VirtStart, root.VirtEnd)
	}

	for _, kind := range []string{"debounce", "wake", "carve", "solve"} {
		ss := byKind[kind]
		if len(ss) == 0 {
			t.Errorf("no %s span recorded", kind)
			continue
		}
		for _, s := range ss {
			if s.Cause != root.ID && s.VirtStart >= root.VirtStart {
				t.Errorf("%s span %d has cause %d, want %d", kind, s.ID, s.Cause, root.ID)
			}
		}
	}

	var switched int
	for _, w := range byKind["wake"] {
		if w.Switch {
			switched++
			if w.Name != "incremental" {
				t.Errorf("switching wake named %q, want incremental", w.Name)
			}
		}
	}
	if switched != 1 {
		t.Errorf("wake spans with Switch = %d, want 1", switched)
	}
	for _, s := range byKind["solve"] {
		if s.Name == "slice" && s.SubSolves != 1 {
			t.Errorf("slice solve sub_solves = %d, want 1", s.SubSolves)
		}
	}
	marks := map[string]bool{}
	for _, m := range byKind["mark"] {
		marks[m.Name] = true
	}
	if !marks["loop-start"] || !marks["switch-done"] {
		t.Errorf("lifecycle marks missing: %v", marks)
	}

	// Latency histograms fed by the same episode.
	for _, h := range tr.Histograms() {
		s := h.Snapshot()
		switch s.Name {
		case "cwcs_solve_duration_seconds", "cwcs_wake_to_switch_seconds", "cwcs_event_to_remediation_vseconds":
			if s.Count == 0 {
				t.Errorf("%s has no samples after a full episode", s.Name)
			}
		}
	}

	// A second episode opens (and closes) its own reconfiguration span.
	a.Schedule(a.now+5, func() {
		arrive(t, cfg, "b2", "jb", "n02")
		l.Notify(a, Event{Kind: VMArrival, At: a.Now(), Nodes: []string{"n02"}, VMs: []string{"b2"}})
	})
	a.run(a.now + 40)
	recs = spansByKind(tr.Recent(0))["reconfig"]
	if len(recs) != 2 {
		t.Fatalf("reconfig spans after second arrival = %d, want 2", len(recs))
	}
	if recs[1].ID == recs[0].ID || recs[1].Cause != recs[1].ID {
		t.Errorf("second episode did not get its own cause: %+v", recs[1])
	}
	if tr.Cause() != 0 {
		t.Errorf("cause %d still live after both episodes closed", tr.Cause())
	}
}

// TestLoopTraceSpliceSpan injects an action failure so the loop
// repairs the in-flight plan, and checks the splice span records the
// attempt with its outcome.
func TestLoopTraceSpliceSpan(t *testing.T) {
	cfg, rules, jobs := fencedChurnCluster(t)
	l, a := eventLoop(cfg, rules, jobs)
	tr := obs.NewTracer(256)
	l.Trace = tr
	a.failVMs = map[string]bool{}
	l.Start(a)
	a.run(2)

	a.Schedule(5, func() {
		arrive(t, cfg, "a2", "ja", "n00")
		arrive(t, cfg, "b2", "jb", "n02")
		a.failVMs["a2"] = true
		l.Notify(a, Event{Kind: VMArrival, At: a.Now(), VMs: []string{"a2", "b2"}, Nodes: []string{"n00", "n02"}})
	})
	a.Schedule(8.5, func() { a.failVMs = map[string]bool{} })
	a.run(120)

	if !cfg.Viable() {
		t.Fatalf("cluster still non-viable: %v", cfg.Violations())
	}
	if l.Stats.Repairs == 0 {
		t.Fatalf("failure did not trigger a repair: %+v", l.Stats)
	}
	var spliced []obs.SpanRecord
	for _, s := range tr.Recent(0) {
		if s.Kind == "splice" && s.Outcome == "spliced" {
			spliced = append(spliced, s)
		}
	}
	if len(spliced) == 0 {
		t.Fatal("no splice span with outcome spliced recorded")
	}
	if spliced[0].Cause == 0 {
		t.Error("splice span carries no cause: repair not attributed to its reconfiguration")
	}
	if spliced[0].WallSeconds < 0 {
		t.Errorf("splice wall duration = %g", spliced[0].WallSeconds)
	}
}

// TestLoopTraceDisabledIsByteIdentical runs the same scenario with and
// without a tracer and checks the loop's observable behaviour does not
// depend on tracing.
func TestLoopTraceDisabledIsByteIdentical(t *testing.T) {
	run := func(tr *obs.Tracer) (LoopStats, int) {
		cfg, rules, jobs := fencedChurnCluster(t)
		l, a := eventLoop(cfg, rules, jobs)
		l.Trace = tr
		l.Start(a)
		a.run(4)
		a.Schedule(5, func() {
			arrive(t, cfg, "a2", "ja", "n00")
			l.Notify(a, Event{Kind: VMArrival, At: a.Now(), Nodes: []string{"n00"}, VMs: []string{"a2"}})
		})
		a.run(40)
		return l.Stats, len(l.Records)
	}
	offStats, offRecs := run(nil)
	onStats, onRecs := run(obs.NewTracer(64))
	if offStats.SliceSolves == 0 {
		t.Fatalf("no slice solve happened: %+v", offStats)
	}
	if offStats != onStats || offRecs != onRecs {
		t.Fatalf("tracing changed loop behaviour:\n off %+v (%d switches)\n on  %+v (%d switches)",
			offStats, offRecs, onStats, onRecs)
	}
}
