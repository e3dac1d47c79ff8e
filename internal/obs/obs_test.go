package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindReconfig: "reconfig", KindDebounce: "debounce", KindWake: "wake",
		KindCarve: "carve", KindSolve: "solve", KindMerge: "merge",
		KindSplice: "splice", KindAction: "action", KindMark: "mark",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := Kind(42).String(); got != "unknown" {
		t.Errorf("out-of-range kind = %q, want unknown", got)
	}
}

func TestSpanLifecycleAndCause(t *testing.T) {
	tr := NewTracer(16)

	root := tr.Start(KindReconfig, "vm-arrival", 10)
	if !root.Active() {
		t.Fatal("root span not active")
	}
	tr.SetCause(root.ID())
	if tr.Cause() != root.ID() {
		t.Fatalf("Cause() = %d, want %d", tr.Cause(), root.ID())
	}
	root.AddEvents(3)

	child := tr.Start(KindSolve, "slice", 10)
	child.SetSolve(7, 2, true)
	child.End(12)
	root.End(40)
	tr.SetCause(0)

	spans := tr.Recent(0)
	if len(spans) != 2 {
		t.Fatalf("Recent returned %d spans, want 2", len(spans))
	}
	solve, reconfig := spans[0], spans[1]
	if solve.Kind != "solve" || reconfig.Kind != "reconfig" {
		t.Fatalf("unexpected order: %s then %s", solve.Kind, reconfig.Kind)
	}
	if reconfig.Cause != reconfig.ID {
		t.Errorf("reconfig span is not its own cause: id=%d cause=%d", reconfig.ID, reconfig.Cause)
	}
	if solve.Cause != reconfig.ID {
		t.Errorf("solve span cause = %d, want %d", solve.Cause, reconfig.ID)
	}
	if solve.Cost != 7 || solve.SubSolves != 2 || !solve.Warm {
		t.Errorf("solve attributes not recorded: %+v", solve)
	}
	if reconfig.Events != 3 {
		t.Errorf("reconfig events = %d, want 3", reconfig.Events)
	}
	if reconfig.VirtDur() != 30 {
		t.Errorf("reconfig virtual duration = %g, want 30", reconfig.VirtDur())
	}
	if solve.WallSeconds < 0 {
		t.Errorf("negative wall duration %g", solve.WallSeconds)
	}

	// A span started with no live cause carries cause 0.
	orphan := tr.Start(KindSolve, "full", 50)
	orphan.End(50)
	got := tr.Recent(1)[0]
	if got.Cause != 0 {
		t.Errorf("orphan cause = %d, want 0", got.Cause)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Start(KindSolve, "x", 1)
	sp.End(2)
	sp.End(3) // must not publish twice
	if n := len(tr.Recent(0)); n != 1 {
		t.Fatalf("double End published %d spans, want 1", n)
	}
	if sp.Active() {
		t.Error("span still active after End")
	}
}

// TestSpanEndMeasured: a span closed with a duration measured
// elsewhere reports that duration, not the time it was open, ends now
// (so it started that long ago) and feeds the solve histogram with it.
func TestSpanEndMeasured(t *testing.T) {
	tr := NewTracer(8)
	before := time.Now().UnixNano()
	sp := tr.Start(KindSolve, "slice", 1)
	sp.EndMeasured(1, 3*time.Second)
	sp.EndMeasured(1, time.Second) // inert after the first close
	recs := tr.Recent(0)
	if len(recs) != 1 || recs[0].WallSeconds != 3 {
		t.Fatalf("spans = %+v, want one lasting 3 s", recs)
	}
	if start := recs[0].WallStart; start >= before || start < before-int64(4*time.Second) {
		t.Fatalf("span started %v after it was opened, want ~3 s before", time.Duration(start-before))
	}
	if h := tr.Histograms()[0].Snapshot(); h.Count != 1 || h.Sum != 3 {
		t.Fatalf("solve histogram = %+v, want the measured 3 s", h)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Mark("m", float64(i))
	}
	spans := tr.Recent(0)
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := uint64(7 + i); s.Seq != want {
			t.Errorf("span %d Seq = %d, want %d (oldest-first, newest retained)", i, s.Seq, want)
		}
	}
	if limited := tr.Recent(2); len(limited) != 2 || limited[1].Seq != 10 {
		t.Errorf("Recent(2) = %+v, want the 2 newest", limited)
	}
}

func TestNilTracerIsInertAndFree(t *testing.T) {
	var tr *Tracer
	tr.SetCause(7)
	if tr.Cause() != 0 {
		t.Error("nil tracer reports a cause")
	}
	tr.Mark("x", 1)
	tr.OnClose(func(SpanRecord) {})

	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start(KindSolve, "slice", 1)
		sp.AddEvents(1)
		sp.SetSolve(3, 1, true)
		sp.SetCached(true)
		sp.SetWiden(1)
		sp.SetSwitch(true)
		sp.SetOutcome("x")
		sp.End(2)
		sp.EndMeasured(2, time.Second)
		tr.Mark("m", 2)
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %g times per span, want 0", allocs)
	}
}

func TestHistogramBucketsSumCount(t *testing.T) {
	h := newHistogram("x_seconds", "help", "", "", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	if s.Sum != 106.5 {
		t.Errorf("sum = %g, want 106.5", s.Sum)
	}
	// le=1 catches 0.5 and the boundary value 1; le=10 catches 5;
	// +Inf catches 100.
	if s.Counts[0] != 2 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Errorf("bucket counts = %v, want [2 1 1]", s.Counts)
	}
}

func TestPushRoutesHistograms(t *testing.T) {
	tr := NewTracer(64)

	solve := tr.Start(KindSolve, "full", 0)
	solve.End(0)

	switched := tr.Start(KindWake, "incremental", 0)
	switched.SetSwitch(true)
	switched.End(0)
	idle := tr.Start(KindWake, "incremental", 0)
	idle.End(0) // no switch: not a wake-to-switch sample

	rec := tr.Start(KindReconfig, "load-change", 10)
	rec.End(40)

	spl := tr.Start(KindSplice, "repair", 0)
	spl.End(0)

	mig := tr.Start(KindAction, "migration", 0)
	mig.End(30)
	odd := tr.Start(KindAction, "defragment", 0)
	odd.End(2)

	counts := map[string]uint64{}
	sums := map[string]float64{}
	for _, h := range tr.Histograms() {
		s := h.Snapshot()
		key := s.Name
		if s.Label != "" {
			key += "{" + s.LabelValue + "}"
		}
		counts[key] = s.Count
		sums[key] = s.Sum
	}
	if counts["cwcs_solve_duration_seconds"] != 1 {
		t.Errorf("solve samples = %d, want 1", counts["cwcs_solve_duration_seconds"])
	}
	if counts["cwcs_wake_to_switch_seconds"] != 1 {
		t.Errorf("wake-to-switch samples = %d, want 1 (idle wakes must not count)", counts["cwcs_wake_to_switch_seconds"])
	}
	if counts["cwcs_event_to_remediation_vseconds"] != 1 || sums["cwcs_event_to_remediation_vseconds"] != 30 {
		t.Errorf("remediation samples = %d sum %g, want 1 sum 30",
			counts["cwcs_event_to_remediation_vseconds"], sums["cwcs_event_to_remediation_vseconds"])
	}
	if counts["cwcs_splice_duration_seconds"] != 1 {
		t.Errorf("splice samples = %d, want 1", counts["cwcs_splice_duration_seconds"])
	}
	if counts["cwcs_action_duration_vseconds{migration}"] != 1 || sums["cwcs_action_duration_vseconds{migration}"] != 30 {
		t.Errorf("migration samples = %d sum %g, want 1 sum 30",
			counts["cwcs_action_duration_vseconds{migration}"], sums["cwcs_action_duration_vseconds{migration}"])
	}
	if counts["cwcs_action_duration_vseconds{other}"] != 1 {
		t.Errorf("unknown action kind must land in 'other', got %d samples", counts["cwcs_action_duration_vseconds{other}"])
	}
}

func TestSubscribeDeliversInOrder(t *testing.T) {
	tr := NewTracer(8)
	sub := tr.Subscribe(4)
	tr.Mark("a", 1)
	tr.Mark("b", 2)
	ev1, ev2 := <-sub.C, <-sub.C
	if ev1.Span.Name != "a" || ev2.Span.Name != "b" {
		t.Fatalf("got %q then %q, want a then b", ev1.Span.Name, ev2.Span.Name)
	}
	if ev1.Type != "span" {
		t.Errorf("event type = %q, want span", ev1.Type)
	}
	sub.Close()
	sub.Close() // idempotent
	if _, ok := <-sub.C; ok {
		t.Error("channel still open after Close")
	}
	if tr.WatchDrops() != 0 {
		t.Errorf("drops = %d, want 0", tr.WatchDrops())
	}
}

func TestSlowSubscriberDroppedNotBlocked(t *testing.T) {
	tr := NewTracer(8)
	sub := tr.Subscribe(1)
	tr.Mark("fits", 1) // fills the 1-slot buffer
	tr.Mark("over", 2) // overflows: drop + disconnect, must not block
	if tr.WatchDrops() != 1 {
		t.Fatalf("drops = %d, want 1", tr.WatchDrops())
	}
	ev, ok := <-sub.C
	if !ok || ev.Span.Name != "fits" {
		t.Fatalf("buffered event lost: %+v ok=%v", ev, ok)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("channel not closed after drop")
	}
	sub.Close() // closing an already-dropped subscription is safe

	// A healthy subscriber keeps receiving after the slow one is gone.
	healthy := tr.Subscribe(4)
	defer healthy.Close()
	tr.Mark("after", 3)
	if ev := <-healthy.C; ev.Span.Name != "after" {
		t.Fatalf("healthy subscriber got %q, want after", ev.Span.Name)
	}
}

func TestOnCloseObserver(t *testing.T) {
	tr := NewTracer(8)
	var got []SpanRecord
	tr.OnClose(func(r SpanRecord) { got = append(got, r) })
	sp := tr.Start(KindReconfig, "ev", 1)
	sp.End(5)
	tr.Mark("m", 5)
	if len(got) != 2 || got[0].Kind != "reconfig" || got[1].Kind != "mark" {
		t.Fatalf("observer saw %+v, want reconfig then mark", got)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Start(KindSolve, "slice", 3)
	sp.SetSolve(42, 2, true)
	sp.SetOutcome("ok")
	sp.End(4)
	tr.Mark("switch-done", 4)
	spans := tr.Recent(0)

	var b strings.Builder
	if err := WriteJSONL(&b, spans); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var back []SpanRecord
	for sc.Scan() {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		back = append(back, r)
	}
	if len(back) != len(spans) {
		t.Fatalf("round-trip produced %d spans, want %d", len(back), len(spans))
	}
	for i := range back {
		back[i].kind = spans[i].kind // the enum is not serialized
		if back[i] != spans[i] {
			t.Errorf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, back[i], spans[i])
		}
	}
}

func TestChromeTrace(t *testing.T) {
	tr := NewTracer(8)
	root := tr.Start(KindReconfig, "vm-arrival", 10)
	tr.SetCause(root.ID())
	sol := tr.Start(KindSolve, "full", 10)
	sol.SetSolve(5, 1, false)
	sol.End(10) // zero virtual width: must still render
	root.End(40)
	tr.SetCause(0)
	tr.Mark("switch-done", 40)

	out, err := ChromeTrace(tr.Recent(0))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("ChromeTrace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	byName := map[string]int{}
	meta := 0
	for i, ev := range doc.TraceEvents {
		byName[ev.Name] = i
		if ev.Ph == "M" {
			meta++
		}
	}
	if meta == 0 {
		t.Error("no thread_name metadata events")
	}
	re := doc.TraceEvents[byName["reconfig:vm-arrival"]]
	if re.Ph != "X" || re.Dur == nil || *re.Dur != 30e6 || re.Ts != 10e6 {
		t.Errorf("reconfig event malformed: %+v", re)
	}
	so := doc.TraceEvents[byName["solve:full"]]
	if so.Dur == nil || *so.Dur != 1 {
		t.Errorf("zero-width solve must get a 1µs sliver, got %+v", so)
	}
	mk := doc.TraceEvents[byName["mark:switch-done"]]
	if mk.Ph != "i" {
		t.Errorf("mark phase = %q, want i (instant)", mk.Ph)
	}
}

func TestRemediationTimes(t *testing.T) {
	spans := []SpanRecord{
		{Kind: "solve", VirtStart: 0, VirtEnd: 1000}, // ignored: wrong kind
		{Kind: "reconfig", VirtStart: 105, VirtEnd: 130},
		{Kind: "reconfig", VirtStart: 240, VirtEnd: 400},
	}
	starts := []float64{100, 250, 500}
	durations := []float64{20, 50, 30}
	times, matched := RemediationTimes(spans, starts, durations)
	if len(times) != 3 {
		t.Fatalf("got %d times, want 3", len(times))
	}
	if matched != 2 {
		t.Errorf("matched = %d, want 2", matched)
	}
	// Episode 1 closes at 120 inside span [105,130]: rem = 120-105 = 15.
	if times[0] != 15 {
		t.Errorf("episode 0 remediation = %g, want 15", times[0])
	}
	// Episode 2 closes at 300 inside span [240,400]; 300-240 = 60 would
	// exceed the 50 s recovery, so it clamps.
	if times[1] != 50 {
		t.Errorf("episode 1 remediation = %g, want 50 (clamped to recovery)", times[1])
	}
	// Episode 3 has no covering span: full recovery duration.
	if times[2] != 30 {
		t.Errorf("episode 2 remediation = %g, want 30 (fallback)", times[2])
	}
	for i := range times {
		if times[i] > durations[i] {
			t.Errorf("episode %d: remediation %g exceeds recovery %g", i, times[i], durations[i])
		}
	}
}

func TestBuildInfo(t *testing.T) {
	info := BuildInfo()
	if info.Version == "" || info.GoVersion == "" {
		t.Fatalf("BuildInfo has empty fields: %+v", info)
	}
	if !strings.HasPrefix(info.GoVersion, "go") {
		t.Errorf("GoVersion = %q, want go-prefixed toolchain", info.GoVersion)
	}
}
