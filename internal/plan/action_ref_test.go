package plan

import (
	"fmt"
	"slices"
	"testing"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// The helpers below are the type switches Kind and Nodes replaced,
// kept verbatim as the reference the derived action facts must match.

func refDemandOf(a Action) (node string, demand resources.Vector) {
	switch a := a.(type) {
	case *Migration:
		return a.Dst, a.Machine.Demand
	case *Run:
		return a.On, a.Machine.Demand
	case *Resume:
		return a.On, a.Machine.Demand
	default:
		return "", resources.Vector{}
	}
}

func refTouchedNodes(a Action) []string {
	switch a := a.(type) {
	case *Migration:
		return []string{a.Src, a.Dst}
	case *Run:
		return []string{a.On}
	case *Stop:
		return []string{a.On}
	case *Suspend:
		return []string{a.On, a.To}
	case *Resume:
		return []string{a.From, a.On}
	default:
		return nil
	}
}

func refCheckNodes(dst, src *vjob.Configuration, a Action) error {
	names := func(ns ...string) error {
		for _, n := range ns {
			if n == "" || (dst.Node(n) == nil && src.Node(n) == nil) {
				return fmt.Errorf("plan: action %s references unknown node %q", a, n)
			}
		}
		return nil
	}
	switch a := a.(type) {
	case *Migration:
		return names(a.Src, a.Dst)
	case *Run:
		return names(a.On)
	case *Stop:
		return names(a.On)
	case *Suspend:
		return names(a.On, a.To)
	case *Resume:
		return names(a.From, a.On)
	}
	return nil
}

func refTransferDemandOf(a Action) (t TransferDemand, ok bool) {
	switch a := a.(type) {
	case *Migration:
		return TransferDemand{Src: a.Src, Dst: a.Dst, Rate: MigrateRateMbps}, true
	case *Suspend:
		if a.To == a.On {
			return TransferDemand{}, false
		}
		return TransferDemand{Src: a.On, Dst: a.To, Rate: SuspendPushRateMbps}, true
	case *Resume:
		if a.Local() {
			return TransferDemand{}, false
		}
		return TransferDemand{Src: a.From, Dst: a.On, Rate: ResumePushRateMbps}, true
	default:
		return TransferDemand{}, false
	}
}

func refActionKind(a Action) int {
	switch a.(type) {
	case *Suspend:
		return 0
	case *Stop:
		return 1
	case *Migration:
		return 2
	case *Resume:
		return 3
	case *Run:
		return 4
	default:
		return 5
	}
}

// refNodes are the endpoints the fact tests draw from: two known
// nodes, an unknown one and the empty name.
var refNodes = []string{"n1", "n2", "nX", ""}

// refConfig holds the known nodes of refNodes.
func refConfig() *vjob.Configuration {
	c := vjob.NewConfiguration()
	c.AddNode(vjob.NewNode("n1", 4, 4096))
	c.AddNode(vjob.NewNode("n2", 4, 4096))
	return c
}

// checkActionFacts compares every fact derived from Kind and Nodes
// with the reference type switch that computed it before.
func checkActionFacts(t *testing.T, cfg *vjob.Configuration, a Action) {
	t.Helper()
	if got, want := AppendTouchedNodes(nil, a), refTouchedNodes(a); !slices.Equal(got, want) {
		t.Errorf("%s: touched nodes %q, want %q", a, got, want)
	}
	gn, gd := demandOf(a)
	wn, wd := refDemandOf(a)
	if gn != wn || gd != wd {
		t.Errorf("%s: demand (%q,%v), want (%q,%v)", a, gn, gd, wn, wd)
	}
	gt, gok := TransferDemandOf(a)
	wt, wok := refTransferDemandOf(a)
	if gt != wt || gok != wok {
		t.Errorf("%s: transfer (%+v,%v), want (%+v,%v)", a, gt, gok, wt, wok)
	}
	if got, want := int(a.Kind()), refActionKind(a); got != want {
		t.Errorf("%s: pool rank %d, want %d", a, got, want)
	}
	ge, we := checkNodes(cfg, cfg, a), refCheckNodes(cfg, cfg, a)
	if fmt.Sprint(ge) != fmt.Sprint(we) {
		t.Errorf("%s: checkNodes %v, want %v", a, ge, we)
	}
}

// TestActionFactsMatchReference covers every kind, local and remote
// suspends and resumes, and endpoints that are empty or unknown.
func TestActionFactsMatchReference(t *testing.T) {
	vm := vjob.NewVM("vm1", "j1", 2, 1024)
	vm.Demand.Set(resources.NetBW, 100)
	cfg := refConfig()
	for _, a := range []Action{
		&Migration{Machine: vm, Src: "n1", Dst: "n2"},
		&Migration{Machine: vm, Src: "n1", Dst: "nX"},
		&Run{Machine: vm, On: "n1"},
		&Run{Machine: vm, On: ""},
		&Stop{Machine: vm, On: "n2"},
		&Suspend{Machine: vm, On: "n1", To: "n1"},
		&Suspend{Machine: vm, On: "n1", To: "n2"},
		&Resume{Machine: vm, From: "n2", On: "n2"},
		&Resume{Machine: vm, From: "n1", On: "n2"},
		&Resume{Machine: vm, From: "", On: "n2"},
	} {
		checkActionFacts(t, cfg, a)
	}
	if _, ok := TransferDemandOf(nil); ok {
		t.Error("TransferDemandOf(nil) reports a transfer")
	}
	for k, want := range []string{"suspend", "stop", "migrate", "resume", "run"} {
		if got := Kind(k).String(); got != want {
			t.Errorf("Kind(%d) = %q, want %q", k, got, want)
		}
	}
	if got := Kind(-1).String(); got != "unknown" {
		t.Errorf("Kind(-1) = %q, want unknown", got)
	}
}

// FuzzActionFacts builds random actions of every type and compares
// their derived facts with the reference.
func FuzzActionFacts(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint16(1024), uint16(0))
	f.Add(uint8(3), uint8(1), uint8(1), uint16(512), uint16(50))
	f.Add(uint8(4), uint8(2), uint8(3), uint16(0), uint16(0))
	cfg := refConfig()
	f.Fuzz(func(t *testing.T, typ, from, to uint8, mem, net uint16) {
		vm := vjob.NewVM("vm1", "j1", 1, int(mem))
		vm.Demand.Set(resources.NetBW, int(net))
		src, dst := refNodes[int(from)%len(refNodes)], refNodes[int(to)%len(refNodes)]
		var a Action
		switch typ % 5 {
		case 0:
			a = &Migration{Machine: vm, Src: src, Dst: dst}
		case 1:
			a = &Run{Machine: vm, On: dst}
		case 2:
			a = &Stop{Machine: vm, On: src}
		case 3:
			a = &Suspend{Machine: vm, On: src, To: dst}
		default:
			a = &Resume{Machine: vm, From: src, On: dst}
		}
		checkActionFacts(t, cfg, a)
	})
}
