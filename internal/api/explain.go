package api

import (
	"net/http"
	"strconv"

	"cwcs/internal/monitor"
)

// violationsJSON is the body of GET /v1/violations: the aggregate
// exposure integral and its per-entity attribution — who suffered
// (top-K vjobs), where (top-K nodes), on which dimension (the Kinds
// breakdown of each row) and which placement rules broke meanwhile.
type violationsJSON struct {
	Total             float64             `json:"total"`
	TransferSeconds   float64             `json:"transferSeconds"`
	RuleBreachSeconds float64             `json:"ruleBreachSeconds"`
	VJobs             []monitor.Summary   `json:"vjobs,omitempty"`
	Nodes             []monitor.Summary   `json:"nodes,omitempty"`
	Rules             []monitor.RuleEntry `json:"rules,omitempty"`
}

// handleViolations serves the attribution ledger's top-K view. ?k caps
// the per-entity rows (default 10, 0 means all). Ledger reads are
// self-locked, so this endpoint deliberately skips Exec.
func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "violations: k must be a non-negative integer, got %q", q)
			return
		}
		k = n
	}
	writeJSON(w, http.StatusOK, violationsJSON{
		Total:             s.Ledger.Total(),
		TransferSeconds:   s.Ledger.TransferSeconds(),
		RuleBreachSeconds: s.Ledger.RuleBreachSeconds(),
		VJobs:             s.Ledger.TopVJobs(k),
		Nodes:             s.Ledger.TopNodes(k),
		Rules:             s.Ledger.RuleSeconds(),
	})
}

// handleSolver serves the solver search telemetry: strategy win
// counts, warm-start hit/miss tallies, explored-node and backtrack
// totals, per-cause re-solve counts and the recent per-solve reports.
// Telemetry reads are self-locked, so this endpoint skips Exec too.
func (s *Server) handleSolver(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Solver.Snapshot())
}
