package core

import (
	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

// FFDPlan is the standard heuristic the paper compares Entropy against
// in the §5.1 scalability study: it computes the destination
// configuration with a plain First-Fit-Decrease pass — stopping at the
// first completed viable configuration, with no regard for the current
// placement of the VMs — and plans the resulting graph. Because FFD
// ignores locality, its plans migrate and remotely resume far more
// than necessary, which is precisely the gap Figure 10 quantifies.
func FFDPlan(p Problem) (*Result, error) {
	sc := takeScratch()
	defer sc.release()
	goals, err := p.compile(sc.c.goals)
	if err != nil {
		return nil, err
	}
	sc.c.goals, sc.c.nodes = goals, p.Src.AppendNodes(sc.c.nodes[:0])
	dst, err := ffdDestination(nil, p.Src, sc.c.nodes, goals, sc)
	if err != nil {
		return nil, err
	}
	pl, err := sc.ws.Plan(plan.Builder{}, p.Src, dst, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Dst: dst, Plan: pl, Cost: pl.Cost(), Solutions: 1}, nil
}

// ffdDestination packs the VMs that must run First-Fit-Decrease onto
// the empty node set, src's nodes, and decodes that assignment into
// dst. No runner holds a place there, so this is FirstFitDecrease on an
// empty copy of the nodes, read back from sc's first-fit state.
func ffdDestination(dst, src *vjob.Configuration, nodes []*vjob.Node, goals []vmGoal, sc *scratch) (*vjob.Configuration, error) {
	runners := sc.runners[:0]
	for _, g := range goals {
		if g.want == vjob.Running {
			runners = append(runners, g.vm)
		}
	}
	sc.runners = runners
	ff := sc.ff.Reset(nodes)
	if !ff.Pack(runners) {
		return nil, ErrNoViableConfiguration
	}
	// decode asks for the hosts of the goals that want Running in goal
	// order, the order of runners.
	k := -1
	return decode(dst, src, goals, goals, func(int) string { k++; return ff.Host(k).Name })
}
