package drivers

import (
	"fmt"
	"testing"
	"time"

	"cwcs/internal/duration"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// The helpers below are the type switches of the simulator, the
// drivers and the duration model that Kind and Nodes replaced, kept
// verbatim (methods turned into functions of the model) as the
// reference the derived action facts must match.

func refKindOf(a plan.Action) string {
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

func refActionKind(a plan.Action) string {
	switch a.(type) {
	case *plan.Migration:
		return "migration"
	case *plan.Run:
		return "run"
	case *plan.Stop:
		return "stop"
	case *plan.Suspend:
		return "suspend"
	case *plan.Resume:
		return "resume"
	default:
		return "other"
	}
}

func refPipelined(a plan.Action) bool {
	switch a.(type) {
	case *plan.Suspend, *plan.Resume:
		return true
	default:
		return false
	}
}

func refHostOf(a plan.Action) string {
	switch a := a.(type) {
	case *plan.Suspend:
		return a.On
	case *plan.Resume:
		return a.On
	default:
		return ""
	}
}

func refActionTransfer(m duration.Model, a plan.Action) (duration.TransferSpec, bool) {
	switch a := a.(type) {
	case *plan.Migration:
		return m.MigrateSpec(plan.TransferSize(a.Machine)), true
	case *plan.Suspend:
		if a.To == a.On {
			return duration.TransferSpec{}, false
		}
		return m.SuspendSpec(plan.TransferSize(a.Machine), duration.SCP), true
	case *plan.Resume:
		if a.Local() {
			return duration.TransferSpec{}, false
		}
		return m.ResumeSpec(plan.TransferSize(a.Machine), duration.SCP), true
	default:
		return duration.TransferSpec{}, false
	}
}

func refActionDuration(m duration.Model, a plan.Action) (time.Duration, duration.Transfer, error) {
	switch a := a.(type) {
	case *plan.Run:
		return m.Boot(), duration.Local, nil
	case *plan.Stop:
		return m.Shutdown(), duration.Local, nil
	case *plan.Migration:
		return m.Migrate(a.Machine.MemoryDemand()), duration.Local, nil
	case *plan.Suspend:
		tr := duration.Local
		if a.To != a.On {
			tr = duration.SCP
		}
		return m.Suspend(a.Machine.MemoryDemand(), tr), tr, nil
	case *plan.Resume:
		tr := duration.Local
		if !a.Local() {
			tr = duration.SCP
		}
		return m.Resume(a.Machine.MemoryDemand(), tr), tr, nil
	default:
		return 0, duration.Local, &duration.UnknownActionError{Action: a}
	}
}

// checkActionFacts compares the simulator's kind name, the span name,
// the pipelining decision and host, the duration and the transfer mode
// and decomposition with the reference type switches.
func checkActionFacts(t *testing.T, a plan.Action) {
	t.Helper()
	if got, want := a.Kind().String(), refKindOf(a); got != want {
		t.Errorf("%s: ActionCounts name %q, want %q", a, got, want)
	}
	if got, want := actionKind(a), refActionKind(a); got != want {
		t.Errorf("%s: span name %q, want %q", a, got, want)
	}
	sched := scheduleTimes(plan.Pool{a, a}, 0)
	if got, want := sched[1].at > 0, refPipelined(a); got != want {
		t.Errorf("%s: pipelined %v, want %v", a, got, want)
	}
	if refPipelined(a) && hostOf(a) != refHostOf(a) {
		t.Errorf("%s: pipelining host %q, want %q", a, hostOf(a), refHostOf(a))
	}
	m := duration.Default()
	gd, gtr, gerr := m.ActionDuration(a)
	wd, wtr, werr := refActionDuration(m, a)
	if gd != wd || gtr != wtr || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Errorf("%s: duration (%v,%v,%v), want (%v,%v,%v)", a, gd, gtr, gerr, wd, wtr, werr)
	}
	gs, gok := m.ActionTransfer(a)
	ws, wok := refActionTransfer(m, a)
	if gs != ws || gok != wok {
		t.Errorf("%s: transfer (%+v,%v), want (%+v,%v)", a, gs, gok, ws, wok)
	}
}

// TestActionFactsMatchReference covers every kind, local and remote
// suspends and resumes, and an action of no known kind.
func TestActionFactsMatchReference(t *testing.T) {
	vm := vjob.NewVM("vm1", "j1", 2, 1024)
	vm.Demand.Set(resources.NetBW, 100)
	for _, a := range []plan.Action{
		&plan.Migration{Machine: vm, Src: "n1", Dst: "n2"},
		&plan.Run{Machine: vm, On: "n1"},
		&plan.Stop{Machine: vm, On: "n2"},
		&plan.Suspend{Machine: vm, On: "n1", To: "n1"},
		&plan.Suspend{Machine: vm, On: "n1", To: "n2"},
		&plan.Resume{Machine: vm, From: "n2", On: "n2"},
		&plan.Resume{Machine: vm, From: "n1", On: "n2"},
		&unmodeledAction{m: vm},
	} {
		checkActionFacts(t, a)
	}
}

// FuzzActionFacts builds random actions of every type and compares
// their derived facts with the reference.
func FuzzActionFacts(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint16(1024), uint16(0))
	f.Add(uint8(3), uint8(1), uint8(1), uint16(512), uint16(50))
	f.Add(uint8(4), uint8(2), uint8(0), uint16(0), uint16(0))
	nodes := []string{"n1", "n2", ""}
	f.Fuzz(func(t *testing.T, typ, from, to uint8, mem, net uint16) {
		vm := vjob.NewVM("vm1", "j1", 1, int(mem))
		vm.Demand.Set(resources.NetBW, int(net))
		src, dst := nodes[int(from)%len(nodes)], nodes[int(to)%len(nodes)]
		var a plan.Action
		switch typ % 6 {
		case 0:
			a = &plan.Migration{Machine: vm, Src: src, Dst: dst}
		case 1:
			a = &plan.Run{Machine: vm, On: dst}
		case 2:
			a = &plan.Stop{Machine: vm, On: src}
		case 3:
			a = &plan.Suspend{Machine: vm, On: src, To: dst}
		case 4:
			a = &plan.Resume{Machine: vm, From: src, On: dst}
		default:
			a = &unmodeledAction{m: vm}
		}
		checkActionFacts(t, a)
	})
}
