// Package obs is the observability layer of the reconfiguration
// pipeline: causal spans over event→solve→splice→action, latency
// histograms behind /metrics, and a live span stream behind /v1/watch.
//
// The design constraint is that tracing is optional and, when off,
// free. Every producer holds a *Tracer that may be nil; Span is a
// small value type whose methods no-op when the tracer is nil, so the
// hot path never branches into allocation-bearing code
// (TestNilTracerIsInertAndFree pins 0 allocations). The readers behind
// the control plane (Recent, Histograms, WatchDrops, Subscribe) need a
// non-nil tracer: the control plane always has one. When tracing is on,
// closed spans land in a fixed-size ring of atomic pointers —
// writers never take a lock and readers (HTTP handlers on other
// goroutines) never block the loop.
//
// Spans carry two clocks. Wall-clock durations answer "how much CPU
// did deciding cost" (solver time, splice time); virtual-time
// durations answer "how long was the cluster exposed" (action
// lifetimes, event-to-remediation). The two are deliberately not
// comparable and land in separate histograms.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span by the pipeline stage it covers.
type Kind uint8

const (
	// KindReconfig is the root span of one reconfiguration: it opens
	// when an event bursts into an idle loop and closes when the loop
	// goes idle again (no dirty work, nothing executing, no wake
	// armed). Its virtual duration is the event-to-remediation time.
	KindReconfig Kind = iota
	// KindDebounce covers the wait between arming a wake and the wake
	// firing.
	KindDebounce
	// KindWake covers one loop iteration: take the dirty set, solve,
	// merge, hand off to execution. Switch reports whether it ended in
	// a context switch.
	KindWake
	// KindCarve covers a partition carve.
	KindCarve
	// KindSolve covers one optimizer invocation (a dirty slice or a
	// monolithic solve). The dirty slices of a wake-up are solved
	// together, so their spans are published after the batch, in slice
	// order, each closed with its own measured wall time
	// (EndMeasured); a failed solve carries the outcome "error" and no
	// duration.
	KindSolve
	// KindMerge covers rebasing and merging the plans of a batch of
	// dirty slices, in a wake-up or in a repair.
	KindMerge
	// KindSplice covers a repair attempt against an executing plan;
	// Widen counts region widenings.
	KindSplice
	// KindAction covers one executed action's lifetime in the driver,
	// on the virtual clock.
	KindAction
	// KindMark is an instant lifecycle event (loop start, switch
	// completion), not a duration.
	KindMark
)

var kindNames = [...]string{
	"reconfig", "debounce", "wake", "carve", "solve",
	"merge", "splice", "action", "mark",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// SpanRecord is a closed span as it lands in the ring and the JSONL
// export. It is a flat struct — no maps, no nesting — so encoding is
// cheap and records are comparable in tests.
type SpanRecord struct {
	// Seq is the tracer-global publish order (1-based, dense).
	Seq uint64 `json:"seq"`
	// ID is the span's own identity; Cause is the reconfiguration
	// span this work belongs to (== ID for KindReconfig, 0 when no
	// reconfiguration was live).
	ID    uint64 `json:"id"`
	Cause uint64 `json:"cause,omitempty"`
	// Kind is the stage name (Kind.String()); Name refines it: the
	// triggering event kind for reconfig spans, the action kind for
	// action spans, "incremental"/"full" for wakes.
	Kind string `json:"kind"`
	Name string `json:"name,omitempty"`
	// WallStart is time.Time.UnixNano at open; WallSeconds the
	// wall-clock duration.
	WallStart   int64   `json:"wall_start_ns"`
	WallSeconds float64 `json:"wall_s"`
	// VirtStart/VirtEnd bound the span on the simulation clock.
	VirtStart float64 `json:"virt_start"`
	VirtEnd   float64 `json:"virt_end"`
	// Stage-specific attributes; zero values are omitted.
	Events    int     `json:"events,omitempty"`     // reconfig: coalesced events
	SubSolves int     `json:"sub_solves,omitempty"` // solve: partition count
	Cost      float64 `json:"cost,omitempty"`       // solve: incumbent cost
	Widen     int     `json:"widen,omitempty"`      // splice: widening depth
	Warm      bool    `json:"warm,omitempty"`       // solve: warm start armed
	Switch    bool    `json:"switch,omitempty"`     // wake: ended in a switch
	Outcome   string  `json:"outcome,omitempty"`    // splice/solve: terminal state

	// Search telemetry (solve spans only); scalars so SpanRecord stays
	// comparable — the per-worker breakdown lives in core.Result and
	// core.SolverTelemetry, not on the span.
	Winner      string `json:"winner,omitempty"`       // solve: winning strategy
	SearchNodes int64  `json:"search_nodes,omitempty"` // solve: nodes explored
	Backtracks  int64  `json:"backtracks,omitempty"`   // solve: search failures
	WarmHit     bool   `json:"warm_hit,omitempty"`     // solve: warm seed viable

	kind Kind
}

// VirtDur is the span's virtual-time duration.
func (r *SpanRecord) VirtDur() float64 { return r.VirtEnd - r.VirtStart }

// Span is a live handle on an open span. The zero Span (and any Span
// started from a nil Tracer) is inert: every method is nil-safe and
// returns immediately, which is what makes disabled tracing free.
type Span struct {
	t   *Tracer
	rec SpanRecord
}

// Active reports whether the span is open on a live tracer.
func (s *Span) Active() bool { return s.t != nil }

// ID returns the span's identity, 0 when inert.
func (s *Span) ID() uint64 {
	if s.t == nil {
		return 0
	}
	return s.rec.ID
}

// AddEvents credits n coalesced events to the span.
func (s *Span) AddEvents(n int) {
	if s.t == nil {
		return
	}
	s.rec.Events += n
}

// SetSolve records a solve's incumbent cost, sub-solve count and
// warm-start state.
func (s *Span) SetSolve(cost float64, subSolves int, warm bool) {
	if s.t == nil {
		return
	}
	s.rec.Cost, s.rec.SubSolves, s.rec.Warm = cost, subSolves, warm
}

// SetSearch records a solve's search telemetry: the winning strategy,
// the explored node and backtrack counts, and whether the warm seed
// was still viable.
func (s *Span) SetSearch(winner string, nodes, backtracks int64, warmHit bool) {
	if s.t == nil {
		return
	}
	s.rec.Winner, s.rec.SearchNodes, s.rec.Backtracks, s.rec.WarmHit = winner, nodes, backtracks, warmHit
}

// SetWiden records a splice attempt's widening depth.
func (s *Span) SetWiden(n int) {
	if s.t == nil {
		return
	}
	s.rec.Widen = n
}

// SetSwitch records whether a wake ended in a context switch.
func (s *Span) SetSwitch(switched bool) {
	if s.t == nil {
		return
	}
	s.rec.Switch = switched
}

// SetOutcome records a terminal state ("spliced", "fallback", ...).
// The string should be a constant: it is retained verbatim.
func (s *Span) SetOutcome(outcome string) {
	if s.t == nil {
		return
	}
	s.rec.Outcome = outcome
}

// End closes the span at virtual time virt and publishes it. The
// handle is inert afterwards; End is idempotent.
func (s *Span) End(virt float64) {
	if s.t == nil {
		return
	}
	s.close(virt, time.Duration(nanotime()-s.rec.WallStart))
}

// EndMeasured is End for work that was timed where it ran — solves
// that ran concurrently and are published one by one afterwards, from
// the tracer's one producer: the span lasted wall and ends now, so its
// start is back-dated.
func (s *Span) EndMeasured(virt float64, wall time.Duration) {
	if s.t == nil {
		return
	}
	s.rec.WallStart = nanotime() - int64(wall)
	s.close(virt, wall)
}

func (s *Span) close(virt float64, wall time.Duration) {
	t := s.t
	s.t = nil
	s.rec.WallSeconds = wall.Seconds()
	s.rec.VirtEnd = virt
	rec := s.rec // copy: the caller may reuse the Span slot
	t.push(&rec)
}

func nanotime() int64 { return time.Now().UnixNano() }

// Tracer owns the span ring, the latency histograms and the watch
// subscriptions. Producers (the loop, the driver) run on one
// goroutine; readers may be many and never block producers.
type Tracer struct {
	ids   atomic.Uint64
	seq   atomic.Uint64
	cause atomic.Uint64
	drops atomic.Uint64

	slots []atomic.Pointer[SpanRecord]

	solve       *Histogram
	wake        *Histogram
	remediation *Histogram
	splice      *Histogram
	actions     map[string]*Histogram
	actionOther *Histogram

	mu      sync.Mutex
	subs    []*Subscription
	onClose []func(SpanRecord)
}

// DefaultRing is the span ring size when NewTracer is given n <= 0:
// at the churn study's event rate (~10 spans per reconfiguration) it
// holds several minutes of history in ~1 MiB.
const DefaultRing = 4096

// ActionKinds are the pre-registered label values of
// cwcs_action_duration_vseconds; any other action name lands in
// "other" so the label set stays bounded.
var ActionKinds = []string{"migration", "resume", "run", "stop", "suspend"}

// NewTracer returns a tracer with an n-slot span ring (DefaultRing
// when n <= 0).
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultRing
	}
	t := &Tracer{
		slots: make([]atomic.Pointer[SpanRecord], n),
		solve: newHistogram("cwcs_solve_duration_seconds",
			"Wall-clock duration of one optimizer invocation.", "", "", wallBounds),
		wake: newHistogram("cwcs_wake_to_switch_seconds",
			"Wall-clock time from a loop wake to handing a plan to execution.", "", "", wallBounds),
		remediation: newHistogram("cwcs_event_to_remediation_vseconds",
			"Virtual time from the first event of a reconfiguration to the loop going idle again.", "", "", virtBounds),
		splice: newHistogram("cwcs_splice_duration_seconds",
			"Wall-clock duration of one splice/repair attempt against an executing plan.", "", "", wallBounds),
		actions: make(map[string]*Histogram, len(ActionKinds)+1),
	}
	for _, k := range ActionKinds {
		t.actions[k] = newHistogram("cwcs_action_duration_vseconds",
			"Virtual-time lifetime of one executed action, by kind.", "kind", k, virtBounds)
	}
	t.actionOther = newHistogram("cwcs_action_duration_vseconds",
		"Virtual-time lifetime of one executed action, by kind.", "kind", "other", virtBounds)
	return t
}

// Start opens a span. Safe on a nil tracer: the returned handle is
// inert. Reconfiguration spans become their own cause; other kinds
// inherit the tracer's active cause.
func (t *Tracer) Start(kind Kind, name string, virt float64) Span {
	if t == nil {
		return Span{}
	}
	s := Span{t: t, rec: SpanRecord{
		ID:        t.ids.Add(1),
		Kind:      kind.String(),
		Name:      name,
		WallStart: nanotime(),
		VirtStart: virt,
		kind:      kind,
	}}
	if kind == KindReconfig {
		s.rec.Cause = s.rec.ID
	} else {
		s.rec.Cause = t.cause.Load()
	}
	return s
}

// Mark publishes an instant lifecycle event (zero-duration span).
func (t *Tracer) Mark(name string, virt float64) {
	if t == nil {
		return
	}
	s := t.Start(KindMark, name, virt)
	s.End(virt)
}

// SetCause sets the reconfiguration span ID that subsequently started
// child spans inherit; 0 clears it.
func (t *Tracer) SetCause(id uint64) {
	if t == nil {
		return
	}
	t.cause.Store(id)
}

// Cause returns the active reconfiguration span ID, 0 when idle.
func (t *Tracer) Cause() uint64 {
	if t == nil {
		return 0
	}
	return t.cause.Load()
}

// push assigns publish order, lands the record in the ring, feeds the
// matching histogram and fans out to subscribers. Called only from
// Span.End/Mark with a record nothing else references.
func (t *Tracer) push(rec *SpanRecord) {
	rec.Seq = t.seq.Add(1)
	t.slots[(rec.Seq-1)%uint64(len(t.slots))].Store(rec)
	switch rec.kind {
	case KindSolve:
		t.solve.Observe(rec.WallSeconds)
	case KindWake:
		if rec.Switch {
			t.wake.Observe(rec.WallSeconds)
		}
	case KindReconfig:
		t.remediation.Observe(rec.VirtDur())
	case KindSplice:
		t.splice.Observe(rec.WallSeconds)
	case KindAction:
		h := t.actions[rec.Name]
		if h == nil {
			h = t.actionOther
		}
		h.Observe(rec.VirtDur())
	}
	t.publish(rec)
}

// Recent returns up to max closed spans (all retained when max <= 0),
// oldest first. Lock-free with respect to producers: a scrape never
// delays the loop.
func (t *Tracer) Recent(max int) []SpanRecord {
	out := make([]SpanRecord, 0, len(t.slots))
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	// Ring order: sort by Seq. The ring is written in Seq order so a
	// single rotation restores it, but records race with wrap-around;
	// an insertion sort over an almost-sorted slice is simpler and
	// still cheap at ring size.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Histograms returns every latency histogram in exposition order
// (same-name histograms adjacent so HELP/TYPE headers group).
func (t *Tracer) Histograms() []*Histogram {
	hs := []*Histogram{t.solve, t.wake, t.remediation, t.splice}
	for _, k := range ActionKinds {
		hs = append(hs, t.actions[k])
	}
	return append(hs, t.actionOther)
}

// WatchDrops reports how many watch events were dropped because a
// subscriber could not keep up (each drop also closes that
// subscription).
func (t *Tracer) WatchDrops() uint64 {
	return t.drops.Load()
}

// OnClose registers a synchronous observer invoked with every closed
// span, on the producer's goroutine. Observers must be fast and must
// not call back into the tracer's subscription API.
func (t *Tracer) OnClose(fn func(SpanRecord)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onClose = append(t.onClose, fn)
	t.mu.Unlock()
}
