package plan

// Exports for the package plan_test tests, which need
// internal/workload, an importer of this package.

func GroupVJobResumes(p *Plan) { groupVJobResumes(p) }

func (b Builder) Pools(g *Graph) (*Plan, error) { return b.pools(g) }

func (p Pool) SortDeterministic() { p.sortDeterministic() }
