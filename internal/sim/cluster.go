package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"cwcs/internal/duration"
	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// Phase is one step of a VM's embedded workload: it demands CPU
// processing units and represents Seconds of work at full speed. A
// phase with CPU = 0 models a communication/idle stage that simply
// elapses (at full speed) without consuming a processing unit.
type Phase struct {
	CPU     int
	Seconds float64
}

// workload tracks a VM's progress through its phases.
type workload struct {
	phases    []Phase
	idx       int
	remaining float64 // seconds of work left in the current phase
	done      bool
	frozen    bool // a suspend/stop is in flight: no progress
}

// operation is an in-flight context-switch action.
type operation struct {
	action plan.Action
	nodes  map[string]bool // nodes whose VMs are decelerated
	tr     duration.Transfer
	done   func(error)
	// xfer is non-nil for metered transfers (see transfer.go): the
	// operation then has no scheduled end time — the Run loop re-times
	// it at the bandwidth actually available.
	xfer *transfer
}

// Cluster is the simulated cluster.
type Cluster struct {
	cfg   *vjob.Configuration
	model duration.Model
	now   float64
	seq   int64
	queue eventQueue

	workloads map[string]*workload
	ops       map[*operation]bool
	// xfers lists the in-flight metered transfers in start order (a
	// deterministic completion order when several drain together).
	xfers []*operation

	// offline holds the nodes taken out of the configuration by
	// SetNodeOffline, keyed by name, so SetNodeOnline can restore them
	// with their original capacities.
	offline map[string]*vjob.Node

	// checks run after every executed event and phase advance (see
	// OnAdvance) on the one audit computed for them all.
	checks []func(*Audit)
	audit  Audit

	// onLoad are the load-change subscribers (see OnLoadChange); the
	// event-driven control loop hooks in here.
	onLoad []func(vm string)

	// SuspendToRAM switches suspend/resume to the §7 future-work
	// fast path (no disk image) in the duration model.
	SuspendToRAM bool

	// FailAction, when non-nil, is consulted at the instant each
	// action would complete: a non-nil error makes the action fail —
	// the configuration is left untouched and the error is delivered
	// to the action's done callback — modelling a flaky driver or
	// hypervisor (the paper's SSH/Xen-API calls can fail too). Churn
	// scenarios use it to exercise the loop's plan-repair path.
	FailAction func(a plan.Action) error

	// Buffers reused by every step (see rates) and audit.
	steps   []progress
	decel   map[string]float64
	nodes   []*vjob.Node
	running []*vjob.VM

	// telemetry
	actionsRun map[string]int
	localOps   int
	remoteOps  int
}

// New wraps a configuration into a simulator. The configuration is
// owned by the simulator afterwards: use Config to observe it.
func New(cfg *vjob.Configuration, m duration.Model) *Cluster {
	return &Cluster{
		cfg:        cfg,
		model:      m,
		workloads:  make(map[string]*workload),
		ops:        make(map[*operation]bool),
		offline:    make(map[string]*vjob.Node),
		decel:      make(map[string]float64),
		actionsRun: make(map[string]int),
	}
}

// SetNodeOffline takes an evacuated node out of the cluster: it leaves
// the configuration (no solve can place anything there) until
// SetNodeOnline restores it. The node must hold no VM — drain it first
// (core.DrainSet) and let the control loop evacuate; taking a loaded
// node down would strand its guests' placements.
func (c *Cluster) SetNodeOffline(name string) error {
	if c.offline[name] != nil {
		return nil // already offline
	}
	n := c.cfg.Node(name)
	if n == nil {
		return fmt.Errorf("sim: unknown node %q", name)
	}
	if err := c.cfg.RemoveNode(name); err != nil {
		return err
	}
	c.offline[name] = n
	c.runChecks()
	return nil
}

// SetNodeOnline returns an offline node to the cluster with its
// original capacities.
func (c *Cluster) SetNodeOnline(name string) error {
	n := c.offline[name]
	if n == nil {
		return fmt.Errorf("sim: node %q is not offline", name)
	}
	delete(c.offline, name)
	c.cfg.AddNode(n)
	c.runChecks()
	return nil
}

// OfflineNodes returns the names of the nodes currently offline, in no
// particular order.
func (c *Cluster) OfflineNodes() []string {
	out := make([]string, 0, len(c.offline))
	for n := range c.offline {
		out = append(out, n)
	}
	return out
}

// Now returns the virtual time in seconds.
func (c *Cluster) Now() float64 { return c.now }

// Config returns the live cluster configuration. Callers that need a
// stable view must Clone it.
func (c *Cluster) Config() *vjob.Configuration { return c.cfg }

// Snapshot returns a copy of the configuration's placements and
// states, the monitoring view of the cluster. The copy shares every
// *VM, whose Demand the simulator writes in place as phases advance,
// so it is not independent of later steps (ROADMAP item 16).
func (c *Cluster) Snapshot() *vjob.Configuration { return c.cfg.Clone() }

// OnAdvance registers fn to run after every executed event and after
// every workload phase advance, with the audit of the configuration at
// that state change. The audit is computed once per advance and shared
// by every subscriber: see Audit for what a subscriber may do with it.
func (c *Cluster) OnAdvance(fn func(*Audit)) { c.checks = append(c.checks, fn) }

// OnLoadChange registers fn to run whenever a workload phase advance
// changes a VM's CPU demand or completes its workload — the
// monitoring signal the event-driven control loop reacts to.
func (c *Cluster) OnLoadChange(fn func(vm string)) { c.onLoad = append(c.onLoad, fn) }

func (c *Cluster) notifyLoad(vm string) {
	for _, fn := range c.onLoad {
		fn(vm)
	}
}

func (c *Cluster) runChecks() {
	if len(c.checks) == 0 {
		return
	}
	c.audit.compute(c)
	for _, fn := range c.checks {
		fn(&c.audit)
	}
}

// Schedule registers fn to run at the given virtual time (clamped to
// now if in the past).
func (c *Cluster) Schedule(at float64, fn func()) {
	if at < c.now {
		at = c.now
	}
	c.seq++
	heap.Push(&c.queue, &event{at: at, seq: c.seq, fn: fn})
}

// SetWorkload installs the phases a VM will execute once running. The
// VM's CPU demand is updated as phases begin, which is how monitoring
// observes changing requirements.
func (c *Cluster) SetWorkload(vm string, phases []Phase) {
	w := &workload{phases: phases}
	if len(phases) > 0 {
		w.remaining = phases[0].Seconds
	} else {
		w.done = true
	}
	c.workloads[vm] = w
	c.applyPhaseDemand(vm, w)
}

func (c *Cluster) applyPhaseDemand(vm string, w *workload) {
	v := c.cfg.VM(vm)
	if v == nil {
		return
	}
	if w.done || w.idx >= len(w.phases) {
		v.SetCPUDemand(0)
		return
	}
	v.SetCPUDemand(w.phases[w.idx].CPU)
}

// WorkloadDone reports whether the VM finished all its phases (VMs
// without a workload are never done: they are service VMs).
func (c *Cluster) WorkloadDone(vm string) bool {
	w, ok := c.workloads[vm]
	return ok && w.done
}

// VJobDone reports whether every VM of the vjob completed its
// workload.
func (c *Cluster) VJobDone(j *vjob.VJob) bool {
	for _, v := range j.VMs {
		if !c.WorkloadDone(v.Name) {
			return false
		}
	}
	return len(j.VMs) > 0
}

// StartAction launches a context-switch action; done(err) fires at the
// virtual instant the action completes, after the configuration has
// been updated. The manipulated VM freezes during suspends and stops,
// keeps computing (decelerated) during live migration, and starts
// computing only at completion for run/resume.
//
// An action the duration model cannot time (an unmodeled type) never
// starts: done fires with the model's error at the current instant, so
// the plan's driver records a failed action where the daemon used to
// panic.
func (c *Cluster) StartAction(a plan.Action, done func(error)) {
	d, tr, err := c.actionTiming(a)
	if err != nil {
		c.Schedule(c.now, func() {
			if done != nil {
				done(err)
			}
		})
		return
	}
	op := &operation{action: a, nodes: map[string]bool{}, tr: tr, done: done}
	switch a := a.(type) {
	case *plan.Migration:
		op.nodes[a.Src] = true
		op.nodes[a.Dst] = true
	case *plan.Run:
		op.nodes[a.On] = true
	case *plan.Stop:
		op.nodes[a.On] = true
		c.freeze(a.Machine.Name)
	case *plan.Suspend:
		op.nodes[a.On] = true
		op.nodes[a.To] = true
		c.freeze(a.Machine.Name)
	case *plan.Resume:
		op.nodes[a.From] = true
		op.nodes[a.On] = true
	}
	if tr == duration.Local {
		c.localOps++
	} else {
		c.remoteOps++
	}
	c.ops[op] = true
	if x := c.newTransfer(a); x != nil {
		// Metered transfer: no fixed end time — the Run loop advances
		// its progress at the bandwidth actually available and
		// completes it when the work drains.
		op.xfer = x
		c.xfers = append(c.xfers, op)
		return
	}
	c.Schedule(c.now+d.Seconds(), func() { c.finishAction(op) })
}

// finishAction completes an in-flight operation: the action is applied
// (or failed by FailAction), the manipulated VM's workload thaws, and
// the done callback fires.
func (c *Cluster) finishAction(op *operation) {
	delete(c.ops, op)
	if op.xfer != nil {
		c.removeTransfer(op)
	}
	a := op.action
	var err error
	if c.FailAction != nil {
		err = c.FailAction(a)
	}
	if err == nil {
		err = a.Apply(c.cfg)
	}
	if err == nil {
		c.actionsRun[kindOf(a)]++
	}
	// The operation is over either way: a failed suspend/stop
	// leaves the VM running, so its workload must thaw.
	if w, ok := c.workloads[a.VM().Name]; ok {
		w.frozen = false
	}
	if op.done != nil {
		op.done(err)
	}
}

// actionTiming resolves the duration and transfer mode, honouring the
// suspend-to-RAM mode.
func (c *Cluster) actionTiming(a plan.Action) (d time.Duration, tr duration.Transfer, err error) {
	if c.SuspendToRAM {
		switch a.(type) {
		case *plan.Suspend, *plan.Resume:
			return c.model.SuspendToRAM(), duration.Local, nil
		}
	}
	return c.model.ActionDuration(a)
}

func (c *Cluster) freeze(vm string) {
	if w, ok := c.workloads[vm]; ok {
		w.frozen = true
	}
}

func kindOf(a plan.Action) string {
	switch a.(type) {
	case *plan.Migration:
		return "migrate"
	case *plan.Run:
		return "run"
	case *plan.Stop:
		return "stop"
	case *plan.Suspend:
		return "suspend"
	case *plan.Resume:
		return "resume"
	default:
		return "unknown"
	}
}

// ActionCounts returns how many actions of each kind completed.
func (c *Cluster) ActionCounts() map[string]int {
	out := make(map[string]int, len(c.actionsRun))
	for k, v := range c.actionsRun {
		out[k] = v
	}
	return out
}

// TransferCounts returns how many operations ran locally vs. remotely
// (the paper reports 21 of 28 resumes were local).
func (c *Cluster) TransferCounts() (local, remote int) { return c.localOps, c.remoteOps }

// progress is one VM's step: its workload and its rate.
type progress struct {
	vm *vjob.VM
	w  *workload
	r  float64
}

// rates computes, for every running busy unfrozen VM with work left,
// its progress rate in work-seconds per second: the node's CPU share
// divided by the deceleration imposed by in-flight operations. The
// result is in node order, then VM-name order, and the next call
// overwrites it.
func (c *Cluster) rates() []progress {
	clear(c.decel)
	for op := range c.ops {
		f := c.model.Deceleration(op.tr)
		for n := range op.nodes {
			if f > c.decel[n] {
				c.decel[n] = f
			}
		}
	}
	c.steps = c.steps[:0]
	c.nodes = c.cfg.AppendNodes(c.nodes[:0])
	for _, n := range c.nodes {
		first, demand := len(c.steps), 0
		c.running = c.cfg.AppendRunningOn(c.running[:0], n.Name)
		for _, v := range c.running {
			w, ok := c.workloads[v.Name]
			if !ok || w.done || w.frozen {
				continue
			}
			c.steps = append(c.steps, progress{vm: v, w: w})
			demand += v.CPUDemand()
		}
		share := 1.0
		if cpu := n.CPU(); demand > cpu && demand > 0 {
			share = float64(cpu) / float64(demand)
		}
		f := c.decel[n.Name]
		if f == 0 {
			f = 1
		}
		for i := first; i < len(c.steps); i++ {
			s := &c.steps[i]
			s.r = share / f
			if s.vm.CPUDemand() == 0 {
				// Communication phases elapse in real time, modulo
				// operation deceleration.
				s.r = 1 / f
			}
		}
	}
	return c.steps
}

// Run processes events and workload progress until the virtual clock
// reaches `until` or nothing remains to happen.
func (c *Cluster) Run(until float64) {
	// Audit the configuration as the simulation (re)starts: this seeds
	// the invariant checker's baseline with the hand-built initial
	// placement rather than with the outcome of the first event.
	c.runChecks()
	const eps = 1e-9
	for c.now < until-eps {
		steps := c.rates()
		xrates := c.transferRates()
		tEvent := math.Inf(1)
		if len(c.queue) > 0 {
			tEvent = c.queue[0].at
		}
		tPhase := math.Inf(1)
		for _, s := range steps {
			if s.r > 0 {
				if t := c.now + s.w.remaining/s.r; t < tPhase {
					tPhase = t
				}
			}
		}
		// Metered transfers complete when their remaining work drains
		// at the currently available bandwidth; any event in between
		// (a concurrent transfer starting or ending, a VM moving) makes
		// the loop come back here and re-time them.
		tXfer := math.Inf(1)
		for _, op := range c.xfers {
			if t := c.now + op.xfer.remainingSeconds(xrates[op]); t < tXfer {
				tXfer = t
			}
		}
		if math.IsInf(math.Min(math.Min(tEvent, tPhase), tXfer), 1) {
			return // quiescent: no event, no workload, no transfer
		}
		t := math.Min(math.Min(math.Min(tEvent, tPhase), tXfer), until)
		// Advance progress to t.
		dt := t - c.now
		if dt > 0 {
			for _, s := range steps {
				s.w.remaining -= dt * s.r
			}
			for _, op := range c.xfers {
				op.xfer.advance(dt, xrates[op])
			}
			c.now = t
		}
		// Phase completions due now, in node order, then VM-name order.
		for _, s := range steps {
			if s.r > 0 && s.w.remaining <= eps {
				c.advancePhase(s.vm.Name, s.w)
				c.runChecks()
			}
		}
		// Transfer completions due now, in start order. finishAction
		// removes the operation from c.xfers (and its done callback may
		// start new transfers), so rescan from the front each time.
		for {
			var fire *operation
			for _, op := range c.xfers {
				if op.xfer.finished() {
					fire = op
					break
				}
			}
			if fire == nil {
				break
			}
			c.finishAction(fire)
			c.runChecks()
		}
		// Events due now.
		for len(c.queue) > 0 && c.queue[0].at <= c.now+eps {
			e := heap.Pop(&c.queue).(*event)
			e.fn()
			c.runChecks()
		}
		if dt == 0 && tEvent > c.now+eps && tPhase > c.now+eps && tXfer > c.now+eps {
			// Nothing progressed and nothing fired: avoid spinning.
			return
		}
	}
}

// advancePhase moves a VM to its next workload phase, notifying the
// load-change subscribers when the observable demand shifted or the
// workload completed.
func (c *Cluster) advancePhase(vm string, w *workload) {
	before := -1
	if v := c.cfg.VM(vm); v != nil {
		before = v.CPUDemand()
	}
	w.idx++
	if w.idx >= len(w.phases) {
		w.done = true
		w.remaining = 0
	} else {
		w.remaining = w.phases[w.idx].Seconds
	}
	c.applyPhaseDemand(vm, w)
	after := before
	if v := c.cfg.VM(vm); v != nil {
		after = v.CPUDemand()
	}
	if after != before || w.done {
		c.notifyLoad(vm)
	}
}

// RemainingWork returns the seconds of work (at full speed) the VM
// still has across all phases, for tests and progress reports.
func (c *Cluster) RemainingWork(vm string) float64 {
	w, ok := c.workloads[vm]
	if !ok || w.done {
		return 0
	}
	total := w.remaining
	for i := w.idx + 1; i < len(w.phases); i++ {
		total += w.phases[i].Seconds
	}
	return total
}

// String summarizes the simulator state.
func (c *Cluster) String() string {
	return fmt.Sprintf("sim[t=%.1fs, %d events, %d ops in flight]", c.now, len(c.queue), len(c.ops))
}
