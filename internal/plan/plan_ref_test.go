package plan

import (
	"fmt"
	"slices"
	"sort"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// The functions below are the planner as it ran before it worked in a
// Workspace: BuildGraph and Builder.Plan building every graph, action,
// pool, map and book from nil. They are kept verbatim, renamed, as the
// reference Workspace.Plan must match; the helpers the workspace left
// unchanged (demandOf, breakCycle, checkNodes, the NIC book's fits,
// admit and release) are shared.

// RefPlan is the reference BuildGraph followed by b.Plan.
func RefPlan(b Builder, src, dst *vjob.Configuration) (*Plan, error) {
	g, err := refBuildGraph(src, dst)
	if err != nil {
		return nil, err
	}
	p, err := refPools(b, g)
	if err != nil {
		return nil, err
	}
	refGroupVJobResumes(p)
	return p, nil
}

func refBuildGraph(src, dst *vjob.Configuration) (*Graph, error) {
	g := &Graph{Src: src, Dst: dst}
	for _, v := range src.VMs() {
		from := src.StateOf(v.Name)
		to := dst.StateOf(v.Name)
		if !vjob.ValidTransition(from, to) {
			return nil, fmt.Errorf("plan: VM %s: invalid transition %v -> %v", v.Name, from, to)
		}
		switch {
		case from == vjob.Running && to == vjob.Running:
			if src.HostOf(v.Name) != dst.HostOf(v.Name) {
				g.Actions = append(g.Actions, &Migration{Machine: v, Src: src.HostOf(v.Name), Dst: dst.HostOf(v.Name)})
			}
		case from == vjob.Sleeping && to == vjob.Sleeping:
			if src.ImageHostOf(v.Name) != dst.ImageHostOf(v.Name) {
				return nil, fmt.Errorf("plan: VM %s: relocating a suspended image (%s -> %s) is not a context-switch action",
					v.Name, src.ImageHostOf(v.Name), dst.ImageHostOf(v.Name))
			}
		case from == vjob.Running && to == vjob.Sleeping:
			g.Actions = append(g.Actions, &Suspend{Machine: v, On: src.HostOf(v.Name), To: dst.ImageHostOf(v.Name)})
		case from == vjob.Running && to == vjob.Terminated:
			g.Actions = append(g.Actions, &Stop{Machine: v, On: src.HostOf(v.Name)})
		case from == vjob.Sleeping && to == vjob.Running:
			g.Actions = append(g.Actions, &Resume{Machine: v, From: src.ImageHostOf(v.Name), On: dst.HostOf(v.Name)})
		case from == vjob.Waiting && to == vjob.Running:
			g.Actions = append(g.Actions, &Run{Machine: v, On: dst.HostOf(v.Name)})
		}
	}
	// VMs that appear only in the destination are booted from Waiting.
	for _, v := range dst.VMs() {
		if src.VM(v.Name) != nil {
			continue
		}
		if dst.StateOf(v.Name) == vjob.Running {
			g.Actions = append(g.Actions, &Run{Machine: v, On: dst.HostOf(v.Name)})
		}
	}
	for _, a := range g.Actions {
		if err := checkNodes(dst, src, a); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func refPools(b Builder, g *Graph) (*Plan, error) {
	p := &Plan{Src: g.Src}
	cur := g.Src.Clone()
	remaining := append([]Action(nil), g.Actions...)
	free := make(map[string]resources.Vector)
	spare := make(Pool, len(remaining))

	for len(remaining) > 0 {
		pool, rest := refExtractPool(cur, free, remaining, spare[:0], !b.DisableTransferGating)
		pool, spare = pool[:len(pool):len(pool)], spare[len(pool):]
		if len(pool) == 0 {
			bypass, rewritten, err := breakCycle(cur, remaining)
			if err != nil {
				return nil, err
			}
			p.Bypass++
			pool = Pool{bypass}
			remaining = rewritten
		} else {
			remaining = rest
		}
		refSortDeterministic(pool)
		for _, a := range pool {
			if err := a.Apply(cur); err != nil {
				return nil, fmt.Errorf("plan: applying %s: %w", a, err)
			}
		}
		p.Pools = append(p.Pools, pool)
	}
	return p, nil
}

func refSortDeterministic(p Pool) {
	sort.SliceStable(p, func(i, j int) bool {
		ki, kj := p[i].Kind(), p[j].Kind()
		if ki != kj {
			return ki < kj
		}
		return p[i].VM().Name < p[j].VM().Name
	})
}

func refNewTransferBook(cfg *vjob.Configuration) *transferBook {
	return &transferBook{cfg: cfg, used: make(map[string]int)}
}

func refExtractPool(cur *vjob.Configuration, free map[string]resources.Vector, remaining []Action, pool Pool, gateTransfers bool) (Pool, []Action) {
	clear(free)
	book := refNewTransferBook(cur)
	rest := remaining[:0]
	for _, a := range remaining {
		if gateTransfers && !book.fits(a) {
			rest = append(rest, a)
			continue
		}
		node, demand := demandOf(a)
		if node == "" { // pure release: always resource-feasible
			pool = append(pool, a)
			book.admit(a)
			continue
		}
		f, ok := free[node]
		if !ok {
			f = cur.Free(node)
		}
		if demand.Fits(f) {
			pool = append(pool, a)
			f = f.Sub(demand)
			book.admit(a)
		} else {
			rest = append(rest, a)
		}
		free[node] = f
	}
	return pool, rest
}

func refGroupVJobResumes(p *Plan) {
	groups := refResumeGroups(p)
	valid := len(groups) > 0 && refRecordTargetFree(p, groups)
	delayed := make(map[string][]delay) // node -> resumes of kept moves
	var books []*transferBook           // by pool, built on first use as a target
	if valid {
		books = make([]*transferBook, len(p.Pools))
	}
	var kept []*resumeGroup
	for _, g := range groups {
		var ok bool
		if valid {
			ok = refFitsTarget(g, delayed) && refAdmit(g, p, books, kept)
		} else {
			ok = refValidate(&Plan{Src: p.Src, Pools: refRebuild(nil, p.Pools, append(kept, g)), Bypass: p.Bypass}) == nil
		}
		if !ok {
			continue
		}
		kept = append(kept, g)
		for i, r := range g.late {
			delayed[r.On] = append(delayed[r.On], delay{from: g.from[i], to: g.target, demand: r.Machine.Demand})
		}
	}
	p.Pools = refRebuild(p.Pools[:0], p.Pools, kept)
}

func refResumeGroups(p *Plan) []*resumeGroup {
	var all []*resumeGroup
	byJob := make(map[string]*resumeGroup)
	for i, pool := range p.Pools {
		for _, a := range pool {
			if r, ok := a.(*Resume); ok && r.Machine.VJob != "" {
				g := byJob[r.Machine.VJob]
				if g == nil {
					g = &resumeGroup{job: r.Machine.VJob}
					byJob[g.job] = g
					all = append(all, g)
				}
				g.target = i
				g.late = append(g.late, r)
				g.from = append(g.from, i)
			}
		}
	}
	groups := all[:0]
	for _, g := range all {
		n := len(g.from)
		for n > 0 && g.from[n-1] == g.target {
			n--
		}
		if n > 0 {
			g.late, g.from = g.late[:n], g.from[:n]
			groups = append(groups, g)
		}
	}
	return groups
}

func refRecordTargetFree(p *Plan, groups []*resumeGroup) bool {
	at := make([][]*resumeGroup, len(p.Pools))
	for _, g := range groups {
		at[g.target] = append(at[g.target], g)
	}
	return refReplay(p, func(i int, cur *vjob.Configuration) {
		for _, g := range at[i] {
			g.free = make(map[string]resources.Vector, len(g.late))
			for _, r := range g.late {
				g.free[r.On] = cur.Free(r.On)
			}
		}
	}) == nil
}

func refPoolAfter(pools []Pool, kept []*resumeGroup, i int) Pool {
	var gone, in []Action
	for _, g := range kept {
		for k, r := range g.late {
			if g.from[k] == i {
				gone = append(gone, r)
			} else if g.target == i {
				in = append(in, r)
			}
		}
	}
	if len(gone)+len(in) == 0 {
		return pools[i]
	}
	pool := make(Pool, 0, len(pools[i])+len(in))
	for _, a := range pools[i] {
		if !slices.Contains(gone, a) {
			pool = append(pool, a)
		}
	}
	if len(in) > 0 {
		pool = append(pool, in...)
		refSortDeterministic(pool)
	}
	return pool
}

func refRebuild(out, pools []Pool, kept []*resumeGroup) []Pool {
	for i := range pools {
		if pool := refPoolAfter(pools, kept, i); len(pool) > 0 {
			out = append(out, pool)
		}
	}
	return out
}

func refAdmit(g *resumeGroup, p *Plan, books []*transferBook, kept []*resumeGroup) bool {
	book := books[g.target]
	if book == nil {
		book = refNewTransferBook(p.Src)
		for _, a := range refPoolAfter(p.Pools, kept, g.target) {
			book.admit(a)
		}
		books[g.target] = book
	}
	for i, r := range g.late {
		if !book.fits(r) {
			for _, r := range g.late[:i] {
				book.release(r)
			}
			return false
		}
		book.admit(r)
	}
	for i, r := range g.late {
		if b := books[g.from[i]]; b != nil {
			b.release(r)
		}
	}
	return true
}

func refFitsTarget(g *resumeGroup, delayed map[string][]delay) bool {
	for _, r := range g.late {
		g.free[r.On] = g.free[r.On].Add(r.Machine.Demand)
	}
	for node := range g.free {
		for _, d := range delayed[node] {
			if d.from < g.target && g.target <= d.to {
				g.free[node] = g.free[node].Add(d.demand)
			}
		}
	}
	for _, r := range g.late {
		if !r.Machine.Demand.Fits(g.free[r.On]) {
			return false
		}
	}
	return true
}

func refValidate(p *Plan) error { return refReplay(p, nil) }

func refReplay(p *Plan, atStart func(pool int, cur *vjob.Configuration)) error {
	cur := p.Src.Clone()
	srcViolations := refSrcOverloads(cur)
	for i, pool := range p.Pools {
		if atStart != nil {
			atStart(i, cur)
		}
		book := refNewTransferBook(cur)
		for _, a := range pool {
			if !a.FeasibleIn(cur) {
				return fmt.Errorf("plan: pool %d: action %s not feasible at pool start", i, a)
			}
			if !book.fits(a) {
				return fmt.Errorf("plan: pool %d: action %s oversubscribes a NIC", i, a)
			}
			book.admit(a)
		}
		for _, a := range pool {
			if err := a.Apply(cur); err != nil {
				return fmt.Errorf("plan: pool %d: %w", i, err)
			}
		}
		for _, v := range cur.Violations() {
			if refIntroduced(srcViolations, v) {
				return fmt.Errorf("plan: pool %d introduces violation: %v", i, v)
			}
		}
	}
	return nil
}

func refSrcOverloads(c *vjob.Configuration) map[string]int {
	m := make(map[string]int)
	for _, v := range c.Violations() {
		m[v.Node+"\x00"+v.Resource] = v.Demand
	}
	return m
}

func refIntroduced(src map[string]int, v vjob.Violation) bool {
	d, ok := src[v.Node+"\x00"+v.Resource]
	return !ok || v.Demand > d
}
