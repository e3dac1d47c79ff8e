package plan_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// swapPair is a ring of full nodes whose VMs each move one node on, so
// every migration waits on the next: the builder breaks the cycle
// through a pivot when one of the spare nodes has room, and fails with
// ErrNoProgress when none has. One time in four a VM is sent back to
// Waiting, a transition the graph refuses.
func swapPair(rng *rand.Rand) (src, dst *vjob.Configuration) {
	src = vjob.NewConfiguration()
	ring := 2 + rng.Intn(4)
	for i := 0; i < ring; i++ {
		src.AddNode(vjob.NewNode(fmt.Sprintf("r%d", i), 2, 2048))
	}
	for i := 0; i < rng.Intn(3); i++ {
		src.AddNode(vjob.NewNode(fmt.Sprintf("spare%d", i), 2, 1024*(1+rng.Intn(2))))
	}
	dst = src.Clone()
	for i := 0; i < ring; i++ {
		v := vjob.NewVM(fmt.Sprintf("v%d", i), fmt.Sprintf("j%d", i%2), 1, 2048)
		src.AddVM(v)
		dst.AddVM(v)
		_ = src.SetRunning(v.Name, fmt.Sprintf("r%d", i))
		_ = dst.SetRunning(v.Name, fmt.Sprintf("r%d", (i+1)%ring))
	}
	if rng.Intn(4) == 0 {
		_ = dst.SetWaiting(fmt.Sprintf("v%d", rng.Intn(ring)))
	}
	return src, dst
}

// workspacePair draws the seed's next instance: a generated
// consolidation of one of the three mixes planned by FFD, a
// NIC-contended store shape, an overloaded squeeze or a cycle.
func workspacePair(rng *rand.Rand) (src, dst *vjob.Configuration) {
	for {
		switch rng.Intn(5) {
		case 0:
			return storePair(rng)
		case 1:
			return squeezePair(rng)
		case 2:
			return swapPair(rng)
		default:
			if src, dst, ok := generatedPair(rng, rng.Intn(3), 0); ok {
				return src, dst
			}
		}
	}
}

// planned is a plan one workspace returned, with what it read then.
type planned struct {
	p    *plan.Plan
	text string
}

// samePlan describes how got differs from the reference planner's plan
// of src → dst (or error), or returns "".
func samePlan(b plan.Builder, src, dst *vjob.Configuration, got *plan.Plan, err error) string {
	want, wantErr := plan.RefPlan(b, src, dst)
	switch {
	case (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()):
		return fmt.Sprintf("error %v, reference %v", err, wantErr)
	case err != nil:
		return ""
	case got.String() != want.String() || got.Cost() != want.Cost() || got.Bypass != want.Bypass:
		return fmt.Sprintf("plans differ:\ngot (bypass %d):\n%s\nreference (bypass %d):\n%s", got.Bypass, got, want.Bypass, want)
	}
	gotDst, err := got.Result()
	wantDst, wantErr := want.Result()
	if err != nil || wantErr != nil || !gotDst.Equal(wantDst) {
		return fmt.Sprintf("destinations differ (errors %v, %v)", err, wantErr)
	}
	return ""
}

// workspaceRun drives steps instances of the seed through one
// Workspace, each planned into a new plan or into one of the earlier
// plans picked at random, and holds every plan to the reference
// planner's when it is made and, unless it was planned into again, at
// the end. It returns the first difference, or "", and how many plans
// were planned into recycled storage and broke a cycle.
func workspaceRun(seed int64, steps int) (diff string, recycled, bypassed int) {
	rng := rand.New(rand.NewSource(seed))
	var ws plan.Workspace
	var held []planned
	for step := 0; step < steps; step++ {
		src, dst := workspacePair(rng)
		b := plan.Builder{DisableTransferGating: rng.Intn(4) == 0}
		var into *plan.Plan
		if k := rng.Intn(len(held) + 1); k < len(held) {
			into = held[k].p
			held = append(held[:k], held[k+1:]...)
			recycled++
		}
		got, err := ws.Plan(b, src, dst, into)
		if d := samePlan(b, src, dst, got, err); d != "" {
			return fmt.Sprintf("step %d: %s", step, d), recycled, bypassed
		}
		fresh, freshErr := plan.BuildGraph(src, dst)
		if freshErr == nil {
			var p *plan.Plan
			p, freshErr = b.Plan(fresh)
			if d := samePlan(b, src, dst, p, freshErr); d != "" {
				return fmt.Sprintf("step %d, fresh workspace: %s", step, d), recycled, bypassed
			}
		}
		if err == nil {
			held = append(held, planned{got, got.String()})
			if got.Bypass > 0 {
				bypassed++
			}
		}
	}
	for _, h := range held {
		if h.p.String() != h.text {
			return fmt.Sprintf("a plan no one planned into again changed:\nnow:\n%s\nthen:\n%s", h.p, h.text), recycled, bypassed
		}
	}
	return "", recycled, bypassed
}

// TestWorkspaceMatchesReference: 40 streams of 30 instances — generated
// consolidations of the three mixes, NIC-contended stores, overloaded
// squeezes and migration cycles with and without a pivot — planned in
// one workspace each, into new plans and into recycled ones, and by
// BuildGraph and Builder.Plan on fresh workspaces, give the plans and
// errors of the planner that built everything from nil; and the
// benchmark's 500-node FFD plan does too.
func TestWorkspaceMatchesReference(t *testing.T) {
	var recycled, bypassed int
	for seed := int64(0); seed < 40; seed++ {
		diff, r, b := workspaceRun(seed, 30)
		if diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		recycled, bypassed = recycled+r, bypassed+b
	}
	if recycled < 100 || bypassed == 0 {
		t.Fatalf("%d plans recycled, %d broke a cycle", recycled, bypassed)
	}
	var ws plan.Workspace
	var into *plan.Plan
	for seed := int64(1); seed <= 3; seed++ {
		src, dst, ok := generatedPair(rand.New(rand.NewSource(seed)), 0, 500)
		if !ok {
			t.Fatal("FFD found no destination")
		}
		got, err := ws.Plan(plan.Builder{}, src, dst, into)
		if d := samePlan(plan.Builder{}, src, dst, got, err); d != "" {
			t.Fatalf("500 nodes, seed %d: %s", seed, d)
		}
		into = got
	}
}

// TestWorkspacePlanErrors: a refused graph or an unbreakable cycle
// comes back as the one-shot planner's error.
func TestWorkspacePlanErrors(t *testing.T) {
	var ws plan.Workspace
	var refused, stuck int
	for seed := int64(0); seed < 60; seed++ {
		src, dst := swapPair(rand.New(rand.NewSource(seed)))
		_, err := ws.Plan(plan.Builder{}, src, dst, nil)
		if _, want := plan.Build(src, dst); fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("seed %d: error %v, one-shot %v", seed, err, want)
		}
		switch {
		case errors.Is(err, plan.ErrNoProgress):
			stuck++
		case err != nil:
			refused++
		}
	}
	if refused == 0 || stuck == 0 {
		t.Fatalf("%d refused graphs, %d unbreakable cycles", refused, stuck)
	}
}

// FuzzWorkspaceMatchesFresh explores further seeds of the same stream.
func FuzzWorkspaceMatchesFresh(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 11, 50, 100} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if diff, _, _ := workspaceRun(seed, 12); diff != "" {
			t.Fatal(diff)
		}
	})
}
