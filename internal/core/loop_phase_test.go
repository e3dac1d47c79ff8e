package core

import (
	"fmt"
	"slices"
	"testing"

	"cwcs/internal/obs"
	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// loopInput is one input of the loop's state machine.
type loopInput int

const (
	inStart      loopInput = iota
	inStructural           // Notify: VM arrival or departure, node down or up
	inLoad                 // Notify: load change
	inFailure              // Notify: action failure
	inFull                 // a full round comes due: the first, a periodic one, a bootstrap retry
	inDebounce             // the armed wake's debounce timer fires
	inBoundary             // a pool boundary of the managed execution
	inDone                 // the execution completes
	inHalted               // the phase's pending timer or boundary comes after Ctx or Done halted the loop
)

var inputNames = [...]string{"Start", "Notify structural", "Notify load", "Notify failure",
	"full-round timer", "debounce timer", "pool boundary", "execution done", "halted"}

func (in loopInput) String() string { return inputNames[in] }

var phaseNames = [...]string{"idle", "armed", "executing", "repair-due"}

func (p phase) String() string { return phaseNames[p] }

// loopTable is the transition table DESIGN.md §6 prints: for each phase
// and input, every phase the loop can move to. An absent cell cannot
// happen: no such timer or execution exists in that phase.
var loopTable = map[phase]map[loopInput][]phase{
	phaseIdle: {
		inStart: {phaseIdle}, inStructural: {phaseArmed}, inLoad: {phaseArmed}, inFailure: {phaseArmed},
		inFull: {phaseIdle, phaseExecuting}, inHalted: {phaseIdle},
	},
	phaseArmed: {
		inStart: {phaseArmed}, inStructural: {phaseArmed}, inLoad: {phaseArmed}, inFailure: {phaseArmed},
		inFull: {phaseArmed, phaseExecuting}, inDebounce: {phaseIdle, phaseArmed, phaseExecuting},
		inHalted: {phaseIdle},
	},
	phaseExecuting: {
		inStart: {phaseExecuting}, inStructural: {phaseExecuting}, inLoad: {phaseExecuting},
		inFailure: {phaseExecuting, phaseRepairDue}, inFull: {phaseExecuting}, inDebounce: {phaseExecuting},
		inBoundary: {phaseExecuting}, inDone: {phaseIdle, phaseArmed}, inHalted: {phaseExecuting},
	},
	phaseRepairDue: {
		inStart: {phaseRepairDue}, inStructural: {phaseRepairDue}, inLoad: {phaseRepairDue},
		inFailure: {phaseRepairDue}, inFull: {phaseRepairDue}, inDebounce: {phaseRepairDue},
		inBoundary: {phaseExecuting}, inDone: {phaseArmed}, inHalted: {phaseRepairDue},
	},
}

// phaseActuator labels the loop's timers: a timer scheduled together
// with a new wake generation is the debounced wake, any other one a
// full round. Executions label their own events "pool" and "done".
type phaseActuator struct {
	*fakeManaged
	l   *Loop
	gen int
}

func (a *phaseActuator) Schedule(at float64, fn func()) {
	kind := "full"
	if a.l.gen != a.gen {
		kind, a.gen = "debounce", a.l.gen
	}
	a.schedule(at, kind, fn).gen = a.gen
}

// phaseWorld is what the next round finds: nothing to do, an overload
// one migration fixes, or a VM that fits on no node, failing every
// solve.
type phaseWorld int

const (
	worldRest phaseWorld = iota
	worldSwitch
	worldFail
)

// phaseLoop boots a loop on fencedChurnCluster — the bootstrap round
// rests, so the loop is idle — and sets up the world its next round
// finds.
func phaseLoop(t *testing.T, w phaseWorld, eventDriven bool) (*Loop, *phaseActuator) {
	t.Helper()
	cfg, rules, jobs := fencedChurnCluster(t)
	l, fm := eventLoop(cfg, rules, jobs)
	l.EventDriven = eventDriven
	l.Trace = obs.NewTracer(64)
	a := &phaseActuator{fakeManaged: fm, l: l}
	l.Start(a)
	a.run(1)
	switch w {
	case worldSwitch:
		arrive(t, cfg, "a2", "ja", "n00")
	case worldFail:
		cfg.AddVM(vjob.NewVM("big", "jb", 2, 1024))
		mustRun(t, cfg, "big", "n02")
	}
	return l, a
}

// phaseCase is one cell outcome: the loop is brought into from — in
// the world w, and for the executing family either by a debounced wake
// or (pending) by a full round that left an armed wake behind — and
// given in; it must end in want.
type phaseCase struct {
	from     phase
	in       loopInput
	w        phaseWorld
	pending  bool // executing family: switched by a full round with a wake armed
	finished bool // executing: the last pool already ran
	periodic bool
	want     phase
}

// inPhase brings a loop into the case's from phase through the real
// inputs.
func inPhase(t *testing.T, c phaseCase) (*Loop, *phaseActuator) {
	t.Helper()
	w := c.w
	if c.from >= phaseExecuting {
		w = worldSwitch
	}
	l, a := phaseLoop(t, w, !c.periodic)
	if c.from == phaseIdle {
		return l, a
	}
	if !c.periodic {
		l.Notify(a, Event{Kind: LoadChange, VMs: []string{"a1"}})
	}
	switch {
	case c.from == phaseArmed:
	case c.pending || c.periodic:
		l.wake(a, true)
	default:
		a.fire("debounce")
	}
	if c.finished {
		a.fire("pool")
	}
	if c.from == phaseRepairDue {
		l.Notify(a, FailureEvent(a.Now(), l.exec.Plan().Actions()[0]))
	}
	if l.phase != c.from {
		t.Fatalf("fixture reached %v, want %v", l.phase, c.from)
	}
	return l, a
}

// give applies one input to the loop.
func give(t *testing.T, l *Loop, a *phaseActuator, in loopInput) {
	t.Helper()
	switch in {
	case inStart:
		l.Start(a)
	case inStructural:
		l.Notify(a, Event{Kind: NodeUp, At: a.Now(), Nodes: []string{"n03"}})
	case inLoad:
		l.Notify(a, Event{Kind: LoadChange, At: a.Now(), VMs: []string{"a1"}})
	case inFailure:
		var act plan.Action = &plan.Migration{Machine: l.Queue()[0].VMs[0], Src: "n00", Dst: "n01"}
		if l.exec != nil {
			act = l.exec.Plan().Actions()[0]
		}
		l.Notify(a, FailureEvent(a.Now(), act))
	case inFull:
		l.wake(a, true)
	case inDebounce:
		if !a.fire("debounce") {
			t.Fatal("no debounce timer pending")
		}
	case inBoundary:
		l.poolBoundary(a)
	case inDone:
		l.next(a)
	case inHalted:
		l.Done = func() bool { return true }
		switch l.phase {
		case phaseIdle:
			l.wake(a, true)
		case phaseArmed:
			give(t, l, a, inDebounce)
		default:
			l.poolBoundary(a)
		}
	}
}

// TestLoopTransitionTable drives every cell of loopTable through the
// real inputs, once per outcome the cell lists, and checks that the
// outcomes seen are exactly the table's.
func TestLoopTransitionTable(t *testing.T) {
	var cases []phaseCase
	add := func(c phaseCase) { cases = append(cases, c) }
	// Start and the notifications leave every phase but idle as it is.
	for _, in := range []loopInput{inStart, inStructural, inLoad} {
		want := phaseArmed
		if in == inStart {
			want = phaseIdle
		}
		add(phaseCase{from: phaseIdle, in: in, want: want})
		for _, p := range []phase{phaseArmed, phaseExecuting, phaseRepairDue} {
			add(phaseCase{from: p, in: in, want: p})
		}
	}
	for _, c := range []phaseCase{
		{from: phaseIdle, in: inFailure, want: phaseArmed},
		{from: phaseIdle, in: inFull, w: worldRest, want: phaseIdle},
		{from: phaseIdle, in: inFull, w: worldFail, want: phaseIdle},
		{from: phaseIdle, in: inFull, w: worldSwitch, want: phaseExecuting},
		{from: phaseIdle, in: inHalted, w: worldSwitch, want: phaseIdle},

		{from: phaseArmed, in: inFailure, want: phaseArmed},
		{from: phaseArmed, in: inFull, w: worldRest, want: phaseArmed},
		{from: phaseArmed, in: inFull, w: worldFail, want: phaseArmed},
		{from: phaseArmed, in: inFull, w: worldSwitch, want: phaseExecuting},
		{from: phaseArmed, in: inDebounce, w: worldRest, want: phaseIdle},
		{from: phaseArmed, in: inDebounce, w: worldFail, want: phaseArmed},
		{from: phaseArmed, in: inDebounce, w: worldSwitch, want: phaseExecuting},
		{from: phaseArmed, in: inHalted, w: worldSwitch, want: phaseIdle},

		{from: phaseExecuting, in: inFailure, want: phaseRepairDue},
		{from: phaseExecuting, in: inFailure, finished: true, want: phaseExecuting},
		{from: phaseExecuting, in: inFull, want: phaseExecuting},
		{from: phaseExecuting, in: inDebounce, pending: true, want: phaseExecuting},
		{from: phaseExecuting, in: inBoundary, want: phaseExecuting},
		{from: phaseExecuting, in: inDone, want: phaseArmed},
		{from: phaseExecuting, in: inDone, periodic: true, want: phaseIdle},
		{from: phaseExecuting, in: inHalted, want: phaseExecuting},

		{from: phaseRepairDue, in: inFailure, want: phaseRepairDue},
		{from: phaseRepairDue, in: inFull, want: phaseRepairDue},
		{from: phaseRepairDue, in: inDebounce, pending: true, want: phaseRepairDue},
		{from: phaseRepairDue, in: inBoundary, want: phaseExecuting},
		{from: phaseRepairDue, in: inDone, want: phaseArmed},
		{from: phaseRepairDue, in: inHalted, want: phaseRepairDue},
	} {
		add(c)
	}

	seen := map[phase]map[loopInput][]phase{}
	for _, c := range cases {
		name := fmt.Sprintf("%v/%v/world%d", c.from, c.in, c.w)
		if c.pending {
			name += "/pending"
		}
		if c.finished {
			name += "/finished"
		}
		if c.periodic {
			name += "/periodic"
		}
		t.Run(name, func(t *testing.T) {
			l, a := inPhase(t, c)
			iters, gen := l.Stats.Iterations, l.gen
			give(t, l, a, c.in)
			if l.phase != c.want {
				t.Fatalf("%v --%v--> %v, want %v", c.from, c.in, l.phase, c.want)
			}
			if c.from == phaseArmed && c.in != inDebounce && l.gen != gen {
				t.Fatalf("%v re-armed the wake on %v: an armed wake keeps its deadline", c.from, c.in)
			}
			if (c.from >= phaseExecuting || c.in == inHalted) && l.Stats.Iterations != iters {
				t.Fatalf("a round ran in %v on %v", c.from, c.in)
			}
		})
		if seen[c.from] == nil {
			seen[c.from] = map[loopInput][]phase{}
		}
		if !slices.Contains(seen[c.from][c.in], c.want) {
			seen[c.from][c.in] = append(seen[c.from][c.in], c.want)
		}
	}
	for from, row := range loopTable {
		for in, want := range row {
			got := slices.Clone(seen[from][in])
			slices.Sort(got)
			want = slices.Sorted(slices.Values(want))
			if !slices.Equal(got, want) {
				t.Errorf("cell %v × %v: cases reach %v, the table lists %v", from, in, got, want)
			}
		}
		for in := range seen[from] {
			if _, ok := row[in]; !ok {
				t.Errorf("cell %v × %v is tested but absent from the table", from, in)
			}
		}
	}
}

// fuzzSlices is the fuzz cluster's carve: three fenced slices of two
// 2-CPU nodes; each admits at most fuzzSliceVMs one-CPU VMs, so every
// configuration the fuzz reaches has a viable destination.
const (
	fuzzSlices   = 3
	fuzzSliceVMs = 3
)

// fuzzLoop builds the fuzz target's loop: slice 0 starts overloaded, so
// the bootstrap round switches. Start is called; nothing ran yet.
func fuzzLoop(t *testing.T) (*Loop, *phaseActuator, *vjob.Configuration, *obs.Tracer) {
	t.Helper()
	cfg := mkCluster(2*fuzzSlices, 2, 4096)
	var rules []PlacementRule
	var jobs []*vjob.VJob
	for s := 0; s < fuzzSlices; s++ {
		var names []string
		for k := 0; k < fuzzSliceVMs; k++ {
			names = append(names, fmt.Sprintf("x%d_%d", s, k))
		}
		rules = append(rules, Fence{VMs: names, Nodes: []string{fmt.Sprintf("n%02d", 2*s), fmt.Sprintf("n%02d", 2*s+1)}})
		jobs = append(jobs, vjob.NewVJob(fmt.Sprintf("j%d", s), s))
	}
	l, fm := eventLoop(cfg, rules, jobs)
	tr := obs.NewTracer(64)
	l.Trace = tr
	a := &phaseActuator{fakeManaged: fm, l: l}
	fuzzArrive(t, cfg, jobs, 0, "n00")
	fuzzArrive(t, cfg, jobs, 0, "n00")
	cfg.VM("x0_1").SetCPUDemand(2)
	l.Start(a)
	return l, a, cfg, tr
}

// fuzzArrive places the next VM of slice s on node; it returns "" when
// the slice is full.
func fuzzArrive(t *testing.T, cfg *vjob.Configuration, jobs []*vjob.VJob, s int, node string) string {
	t.Helper()
	j := jobs[s]
	if len(j.VMs) == fuzzSliceVMs {
		return ""
	}
	v := vjob.NewVM(fmt.Sprintf("x%d_%d", s, len(j.VMs)), j.Name, 1, 1024)
	j.VMs = append(j.VMs, v)
	cfg.AddVM(v)
	mustRun(t, cfg, v.Name, node)
	return v.Name
}

// expect is the set of phases the table allows after input in from p;
// halted, no round or repair runs, and only an armed wake's timer moves
// the phase (to idle).
func expect(t *testing.T, p phase, in loopInput, halted bool) []phase {
	t.Helper()
	if halted && (in == inFull || in == inDebounce || in == inBoundary) {
		if p == phaseArmed && in == inDebounce {
			return []phase{phaseIdle}
		}
		if _, ok := loopTable[p][in]; ok {
			return []phase{p}
		}
	}
	next, ok := loopTable[p][in]
	if !ok {
		t.Fatalf("%v cannot happen in phase %v", in, p)
	}
	return next
}

// FuzzLoopTransitions drives the event-driven loop with a byte string
// of inputs — Notify of each kind, the next timer, pool or completion
// event, and halting — checking every step against loopTable. A pool
// event may deliver failures before its boundary. A run not halted
// must drain to an idle loop with nothing dirty, nothing owed and no
// open reconfiguration or debounce span.
func FuzzLoopTransitions(f *testing.F) {
	f.Add([]byte{3, 3, 3, 3, 3, 3})             // bootstrap switch, then the follow-up pass
	f.Add([]byte{1, 3, 3, 3, 3, 3, 3, 3})       // a wake armed before the bootstrap switch
	f.Add([]byte{0, 8, 3, 3, 2, 3, 3, 3, 3, 3}) // arrivals, a failure mid-execution
	f.Add([]byte{3, 2, 3, 15, 3, 3})            // halted while executing
	f.Add([]byte{1, 15, 3, 3, 3})               // halted with a wake armed
	f.Fuzz(loopTransitions)
}

// loopTransitions is FuzzLoopTransitions' body.
func loopTransitions(t *testing.T, data []byte) {
	{
		l, a, cfg, tr := fuzzLoop(t)
		halted := false
		l.Done = func() bool { return halted }
		check := func(before phase, allowed []phase, what string) {
			t.Helper()
			if !slices.Contains(allowed, l.phase) {
				t.Fatalf("%v --%s--> %v, table allows %v", before, what, l.phase, allowed)
			}
			if l.exec != nil && !l.Busy() {
				t.Fatalf("phase %v holds an execution", l.phase)
			}
		}
		// fire runs the next pending event and checks its transition.
		fire := func() bool {
			if len(a.events) == 0 {
				return false
			}
			before, gen := l.phase, l.gen
			e := a.events[0]
			switch e.kind {
			case "debounce":
				a.step()
				if e.gen != gen {
					check(before, []phase{before}, "superseded debounce timer")
					return true
				}
				check(before, expect(t, before, inDebounce, halted), "debounce timer")
			case "full":
				a.step()
				check(before, expect(t, before, inFull, halted), "full-round timer")
			case "pool":
				// Failures the pool reports, then its boundary.
				from := []phase{before}
				if before == phaseExecuting || before == phaseRepairDue {
					from = append(from, expect(t, before, inFailure, false)...)
				}
				var allowed []phase
				for _, p := range from {
					allowed = append(allowed, expect(t, p, inBoundary, halted)...)
				}
				a.step()
				check(before, allowed, "pool boundary")
			case "done":
				a.step()
				check(before, expect(t, before, inDone, halted), "execution done")
			default:
				t.Fatalf("unlabelled event %+v", e)
			}
			return true
		}
		for _, b := range data {
			before := l.phase
			arg := int(b >> 3)
			switch b % 8 {
			case 0:
				s := arg % fuzzSlices
				node := fmt.Sprintf("n%02d", 2*s+arg/fuzzSlices%2)
				if name := fuzzArrive(t, cfg, l.Queue(), s, node); name != "" {
					l.Notify(a, Event{Kind: VMArrival, At: a.Now(), Nodes: []string{node}, VMs: []string{name}})
					check(before, expect(t, before, inStructural, halted), "arrival")
				}
			case 1:
				vms := cfg.VMs()
				v := vms[arg%len(vms)]
				v.SetCPUDemand(1 - v.CPUDemand()%2)
				l.Notify(a, Event{Kind: LoadChange, At: a.Now(), VMs: []string{v.Name}})
				check(before, expect(t, before, inLoad, halted), "load change")
			case 2:
				vms := cfg.VMs()
				var act plan.Action = &plan.Migration{Machine: vms[arg%len(vms)], Src: "n00", Dst: "n01"}
				if l.exec != nil && l.exec.Plan().NumActions() > 0 {
					acts := l.exec.Plan().Actions()
					act = acts[arg%len(acts)]
				}
				l.Notify(a, FailureEvent(a.Now(), act))
				check(before, expect(t, before, inFailure, halted), "action failure")
			case 7:
				if arg%4 == 1 {
					halted = true
					continue
				}
				fire()
			default:
				fire()
			}
		}
		for steps := 0; fire(); steps++ {
			if steps > 10000 {
				t.Fatalf("the loop did not drain: phase %v, %d events pending", l.phase, len(a.events))
			}
		}
		if !halted {
			if l.phase != phaseIdle || !l.dirty.empty() {
				t.Fatalf("drained to %v with dirty %v/%v owed=%t", l.phase, l.dirty.nodes, l.dirty.vms, l.dirty.owed)
			}
			if l.causeSpan.Active() || l.debounceSpan.Active() || tr.Cause() != 0 {
				t.Fatal("drained with a reconfiguration or debounce span open")
			}
			if !cfg.Viable() {
				t.Fatalf("drained non-viable: %v", cfg.Violations())
			}
		}
	}
}
