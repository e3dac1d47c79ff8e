package core

import (
	"errors"
	"testing"

	"cwcs/internal/packing"
	"cwcs/internal/vjob"
)

// refFFDDestination is ffdDestination as it ran before it read the
// hosts from the first-fit state: it packed the runners into a scratch
// configuration holding the node set, then read each host back. It is
// kept verbatim as the reference TestFFDDestinationMatchesReference
// compares it with.
func refFFDDestination(src *vjob.Configuration, goals []vmGoal) (*vjob.Configuration, error) {
	scratch := vjob.NewConfiguration()
	for _, n := range src.Nodes() {
		scratch.AddNode(n)
	}
	var runners []*vjob.VM
	for _, g := range goals {
		if g.want == vjob.Running {
			runners = append(runners, g.vm)
			scratch.AddVM(g.vm)
		}
	}
	if err := packing.FirstFitDecrease(scratch, runners); err != nil {
		var nf packing.ErrNoFit
		if errors.As(err, &nf) {
			return nil, ErrNoViableConfiguration
		}
		return nil, err
	}
	return decode(nil, src, goals, goals, func(i int) string { return scratch.HostOf(goals[i].vm.Name) })
}

// TestFFDDestinationMatchesReference: on seeded 2-D and 4-D problems
// with running, sleeping and waiting VMs, one seed in ten adding a VM
// that fits no node, and on the benchmark's 100- and 500-node
// consolidations, ffdDestination builds the destination the reference
// builds, or both fail with ErrNoViableConfiguration.
func TestFFDDestinationMatchesReference(t *testing.T) {
	var problems []Problem
	for seed := int64(0); seed < 60; seed++ {
		problems = append(problems, compileProblem(seed, seed%2 == 1))
	}
	for seed := int64(1); seed <= 3; seed++ {
		problems = append(problems, budgetedProblem(seed, 100, 300), budgetedProblem(seed, 500, 1000))
	}
	var placed, failed, sleeping, waiting int
	for n, p := range problems {
		goals, err := p.compile(nil)
		if err != nil {
			t.Fatalf("problem %d: %v", n, err)
		}
		got, err := ffdDestination(nil, p.Src, p.Src.Nodes(), goals, new(scratch))
		want, wantErr := refFFDDestination(p.Src, goals)
		if wantErr != nil {
			if !errors.Is(wantErr, ErrNoViableConfiguration) || !errors.Is(err, ErrNoViableConfiguration) {
				t.Fatalf("problem %d: error %v, reference %v", n, err, wantErr)
			}
			failed++
			continue
		}
		if err != nil || !got.Equal(want) {
			t.Fatalf("problem %d: destination differs from the reference (error %v)", n, err)
		}
		placed++
		for _, g := range goals {
			switch {
			case g.want == vjob.Running && g.cur == vjob.Sleeping:
				sleeping++
			case g.want == vjob.Running && g.cur == vjob.Waiting:
				waiting++
			}
		}
	}
	t.Logf("placed %d, failed %d, sleeping runners %d, waiting runners %d", placed, failed, sleeping, waiting)
	if placed < 30 || failed < 5 || sleeping < 10 || waiting < 10 {
		t.Fatalf("placed %d, failed %d, sleeping runners %d, waiting runners %d: the problems no longer exercise FFD", placed, failed, sleeping, waiting)
	}
}
