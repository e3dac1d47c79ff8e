package core

import (
	"cwcs/internal/packing"
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
	goals, err := p.compile(nil)
	if err != nil {
		return nil, err
	}
	dst, err := ffdDestination(p.Src, goals)
	if err != nil {
		return nil, err
	}
	res, err := Optimizer{}.plan(p.Src, dst)
	if err != nil {
		return nil, err
	}
	res.Solutions = 1
	return res, nil
}

// ffdDestination packs the VMs that must run First-Fit-Decrease onto
// the empty node set, and decodes that assignment. No runner holds a
// place there, so this is packing.FirstFitDecrease on an empty copy of
// the nodes, read back from the first-fit state instead of the copy.
func ffdDestination(src *vjob.Configuration, goals []vmGoal) (*vjob.Configuration, error) {
	var runners []*vjob.VM
	for _, g := range goals {
		if g.want == vjob.Running {
			runners = append(runners, g.vm)
		}
	}
	ff := packing.NewFirstFit(src.Nodes())
	if !ff.Pack(runners) {
		return nil, ErrNoViableConfiguration
	}
	// decode asks for the hosts of the goals that want Running in goal
	// order, the order of runners.
	k := -1
	return decode(src, goals, goals, func(int) string { k++; return ff.Host(k).Name })
}
