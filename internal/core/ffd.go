package core

import (
	"errors"

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
	goals, err := p.compile()
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
// an empty copy of the node set, and decodes that assignment.
func ffdDestination(src *vjob.Configuration, goals []vmGoal) (*vjob.Configuration, error) {
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
	return decode(src, goals, goals, func(i int) string { return scratch.HostOf(goals[i].vm.Name) })
}
