package api_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"cwcs/internal/api"
	"cwcs/internal/core"
)

// TestViolationsEndpoint drives a real overload episode through the
// loop and checks GET /v1/violations attributes the accrued exposure:
// who suffered (the overloading vjob), where (the oversubscribed
// node), on which dimension — and that the labeled
// cwcs_violation_seconds_total series carry the same attribution.
func TestViolationsEndpoint(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	// Two 2-cpu VMs on one 2-cpu node: violated until the loop migrates
	// one away, so violation-seconds accrue with a clear dominant
	// consumer.
	d.place("ja", 2, 2, 1024, []string{"node000", "node000"})
	d.locked(func() {
		d.Feed(core.Event{
			Kind: core.VMArrival, At: d.Cluster.Now(),
			VMs: []string{"ja-vm0", "ja-vm1"}, Nodes: []string{"node000"},
		})
	})
	d.advance(60)

	var v api.ViolationsJSON
	if err := json.Unmarshal(d.get(t, "/v1/violations", http.StatusOK), &v); err != nil {
		t.Fatalf("violations: %v", err)
	}
	if v.Total <= 0 {
		t.Fatalf("no violation exposure after an overload episode: %+v", v)
	}
	d.locked(func() {
		if got := d.srv.ViolationSeconds(); got != v.Total {
			t.Fatalf("endpoint total %v != ledger integral %v", v.Total, got)
		}
	})
	if len(v.VJobs) == 0 || v.VJobs[0].VJob != "ja" || v.VJobs[0].Seconds <= 0 {
		t.Fatalf("vjob attribution: %+v", v.VJobs)
	}
	if v.VJobs[0].Kinds["cpu"] <= 0 {
		t.Fatalf("cpu dimension not charged: %+v", v.VJobs[0].Kinds)
	}
	if len(v.Nodes) == 0 || v.Nodes[0].Node != "node000" || v.Nodes[0].Seconds <= 0 {
		t.Fatalf("node attribution: %+v", v.Nodes)
	}

	// ?k caps the per-entity rows; 0 means all; junk is rejected.
	var capped api.ViolationsJSON
	if err := json.Unmarshal(d.get(t, "/v1/violations?k=1", http.StatusOK), &capped); err != nil {
		t.Fatalf("violations?k=1: %v", err)
	}
	if len(capped.VJobs) > 1 || len(capped.Nodes) > 1 {
		t.Fatalf("k=1 not honoured: %d vjobs, %d nodes", len(capped.VJobs), len(capped.Nodes))
	}
	d.get(t, "/v1/violations?k=0", http.StatusOK)
	d.get(t, "/v1/violations?k=-1", http.StatusBadRequest)
	d.get(t, "/v1/violations?k=many", http.StatusBadRequest)

	// The scrape carries the same attribution as labeled series.
	text := string(d.get(t, "/metrics", http.StatusOK))
	for _, want := range []string{
		`cwcs_violation_seconds_total{vjob="ja",kind="cpu"}`,
		`cwcs_violation_seconds_total{node="node000",kind="cpu"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s:\n%s", want, text)
		}
	}
}

// TestSolverEndpoint checks GET /v1/solver serves the loop's search
// telemetry after a reconfiguration episode: solves with winners,
// causes and scopes, mirrored by the portfolio-win and warm-start
// metric families.
func TestSolverEndpoint(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	d.churn(t)

	var snap core.SolverSnapshot
	if err := json.Unmarshal(d.get(t, "/v1/solver", http.StatusOK), &snap); err != nil {
		t.Fatalf("solver: %v", err)
	}
	if snap.Solves == 0 {
		t.Fatal("no solves recorded after a reconfiguration episode")
	}
	total := uint64(0)
	for _, w := range snap.Wins {
		total += w
	}
	if total != uint64(snap.Solves) {
		t.Fatalf("wins %v do not cover all %d solves", snap.Wins, snap.Solves)
	}
	if snap.ResolveCauses["vm-arrival"] == 0 {
		t.Fatalf("arrival cause not recorded: %v", snap.ResolveCauses)
	}
	if len(snap.Recent) == 0 {
		t.Fatal("no recent solve reports")
	}
	for _, r := range snap.Recent {
		if r.Winner == "" || (r.Scope != "full" && r.Scope != "slice") {
			t.Fatalf("malformed solve report: %+v", r)
		}
	}

	text := string(d.get(t, "/metrics", http.StatusOK))
	if !strings.Contains(text, `cwcs_portfolio_wins_total{strategy=`) {
		t.Errorf("no portfolio win series in metrics:\n%s", text)
	}
	metricValue(t, text, "cwcs_warm_start_hits_total")
	metricValue(t, text, "cwcs_warm_start_misses_total")
}
