package plan

// Exports for the package plan_test tests, which need
// internal/workload, an importer of this package.

func GroupVJobResumes(p *Plan) { new(grouping).run(p, nil) }

func (b Builder) Pools(g *Graph) (*Plan, error) {
	p := new(Plan)
	if err := new(Workspace).pools(b, g, p); err != nil {
		return nil, err
	}
	return p, nil
}

func (p Pool) SortDeterministic() { p.sortDeterministic() }
