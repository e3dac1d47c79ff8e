package core

import (
	"sort"
	"sync"
)

// WorkerOutcome is one portfolio worker's contribution to a solve:
// which strategy it ran, how much of the tree it explored, and how
// often it improved the shared incumbent.
type WorkerOutcome struct {
	Strategy     string `json:"strategy"`
	Nodes        int64  `json:"nodes"`
	Backtracks   int64  `json:"backtracks"`
	Improvements int    `json:"improvements"`
}

// BoundPoint is one step of the incumbent-bound trajectory: the best
// known plan cost as of an offset (wall seconds) into the solve.
type BoundPoint struct {
	Seconds float64 `json:"seconds"`
	Cost    int     `json:"cost"`
}

// SolveReport is the explainability record of one optimizer
// invocation, as recorded by the loop into SolverTelemetry: what was
// solved (scope), why (the dirty cause event kind and its reconfig
// span ID), who won the portfolio race, and what the search cost.
type SolveReport struct {
	Virt        float64         `json:"virt"`
	Scope       string          `json:"scope"`             // "full" | "slice"
	Cause       string          `json:"cause,omitempty"`   // triggering event kind
	CauseID     uint64          `json:"causeId,omitempty"` // reconfig span ID (0 without a tracer)
	Winner      string          `json:"winner,omitempty"`
	Cost        int             `json:"cost"`
	Nodes       int64           `json:"nodes"`
	Backtracks  int64           `json:"backtracks"`
	WarmStart   bool            `json:"warmStart"` // a warm assignment was offered
	WarmHit     bool            `json:"warmHit"`   // ... and was still viable here
	Workers     []WorkerOutcome `json:"workers,omitempty"`
	Trajectory  []BoundPoint    `json:"trajectory,omitempty"`
	WallSeconds float64         `json:"wallSeconds"`
	Phases      Phases          `json:"phases"` // what the wall time went on
}

// SolverSnapshot is the aggregate view served by GET /v1/solver and
// the cwcs_portfolio_wins_total / cwcs_warm_start_* metric families.
type SolverSnapshot struct {
	Solves          int               `json:"solves"`
	Wins            map[string]uint64 `json:"wins,omitempty"`
	WarmStartHits   uint64            `json:"warmStartHits"`
	WarmStartMisses uint64            `json:"warmStartMisses"`
	NodesExplored   int64             `json:"nodesExplored"`
	Backtracks      int64             `json:"backtracks"`
	ResolveCauses   map[string]uint64 `json:"resolveCauses,omitempty"`
	Recent          []SolveReport     `json:"recent,omitempty"`
}

// SolverTelemetry aggregates search telemetry across solves: strategy
// win counts, warm-start hit/miss tallies, explored-node and
// backtrack totals, per-cause re-solve counts, and a bounded ring of
// recent per-solve reports. It carries its own lock, so HTTP handlers
// read it without stopping the loop.
type SolverTelemetry struct {
	mu     sync.Mutex
	solves int
	wins   map[string]uint64
	hits   uint64
	misses uint64
	nodes  int64
	fails  int64
	causes map[string]uint64
	recent []SolveReport
	next   int
	keep   int
}

// DefaultSolveRing bounds the recent-report ring when no size is
// given.
const DefaultSolveRing = 64

// NewSolverTelemetry builds a telemetry aggregate keeping the last
// `keep` per-solve reports (DefaultSolveRing when keep <= 0).
func NewSolverTelemetry(keep int) *SolverTelemetry {
	if keep <= 0 {
		keep = DefaultSolveRing
	}
	return &SolverTelemetry{
		wins:   make(map[string]uint64),
		causes: make(map[string]uint64),
		recent: make([]SolveReport, 0, keep),
		keep:   keep,
	}
}

// RecordSolve folds one solve's report into the aggregate.
func (t *SolverTelemetry) RecordSolve(r SolveReport) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.solves++
	if r.Winner != "" {
		t.wins[r.Winner]++
	}
	if r.WarmStart {
		if r.WarmHit {
			t.hits++
		} else {
			t.misses++
		}
	}
	t.nodes += r.Nodes
	t.fails += r.Backtracks
	if r.Cause != "" {
		t.causes[r.Cause]++
	}
	if len(t.recent) < t.keep {
		t.recent = append(t.recent, r)
	} else {
		t.recent[t.next] = r
	}
	t.next = (t.next + 1) % t.keep
}

// Snapshot copies the aggregate state. Recent reports come oldest
// first.
func (t *SolverTelemetry) Snapshot() SolverSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := SolverSnapshot{
		Solves:          t.solves,
		WarmStartHits:   t.hits,
		WarmStartMisses: t.misses,
		NodesExplored:   t.nodes,
		Backtracks:      t.fails,
	}
	if len(t.wins) > 0 {
		snap.Wins = make(map[string]uint64, len(t.wins))
		for k, v := range t.wins {
			snap.Wins[k] = v
		}
	}
	if len(t.causes) > 0 {
		snap.ResolveCauses = make(map[string]uint64, len(t.causes))
		for k, v := range t.causes {
			snap.ResolveCauses[k] = v
		}
	}
	if n := len(t.recent); n > 0 {
		snap.Recent = make([]SolveReport, 0, n)
		start := 0
		if n == t.keep {
			start = t.next
		}
		for i := 0; i < n; i++ {
			snap.Recent = append(snap.Recent, t.recent[(start+i)%n])
		}
	}
	return snap
}

// WinRates orders the strategy win counts for display: one
// (strategy, wins) pair per strategy, most wins first, label-sorted
// on ties.
func (snap SolverSnapshot) WinRates() []WorkerOutcome {
	out := make([]WorkerOutcome, 0, len(snap.Wins))
	for s, w := range snap.Wins {
		out = append(out, WorkerOutcome{Strategy: s, Improvements: int(w)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Improvements != out[j].Improvements {
			return out[i].Improvements > out[j].Improvements
		}
		return out[i].Strategy < out[j].Strategy
	})
	return out
}
