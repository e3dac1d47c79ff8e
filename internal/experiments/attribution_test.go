package experiments

import (
	"testing"
	"time"
)

// TestAttributionConservation is the conservation law of the ledger on
// a real workload: over a seeded 500-node churn run, the per-vjob
// violation-seconds sum to the aggregate integral EXACTLY (bitwise —
// Total is defined as that fold), and the node-grouped view carries
// the same per-dimension mass up to float fold-order. Run under -race
// in the full suite, this also exercises the ledger's locking against
// the live simulation.
func TestAttributionConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 500-node churn cell")
	}
	opts := DefaultChurnOptions()
	// Keep the 500-node population but trim the horizon and per-solve
	// budget so the conservation check stays a test, not a study.
	opts.Horizon = 900
	opts.ArrivalStop = 200
	opts.Optimizer.Timeout = 50 * time.Millisecond
	opts.Optimizer.Workers = 1
	r := RunChurn(true, opts)

	led := r.Ledger
	if led == nil {
		t.Fatal("churn result carries no ledger")
	}
	if r.ViolationSeconds <= 0 {
		t.Fatal("scenario produced no violation exposure to conserve")
	}
	if got := led.Total(); got != r.ViolationSeconds {
		t.Fatalf("ledger total %v != published integral %v", got, r.ViolationSeconds)
	}

	// Exact conservation: the per-vjob rows fold to the integral
	// bitwise, so no violation-second is unattributed or double-counted.
	sum := 0.0
	for _, e := range led.VJobTotals() {
		sum += e.Seconds
	}
	if sum != r.ViolationSeconds {
		t.Fatalf("sum(per-vjob) = %v != violation-seconds integral %v (must be bitwise equal)",
			sum, r.ViolationSeconds)
	}

	// Cross-view agreement: regrouping the same atoms by node must
	// preserve per-dimension mass (fold order differs, so epsilon).
	byKindFromVJobs := map[string]float64{}
	for _, e := range led.VJobKinds() {
		byKindFromVJobs[e.Kind] += e.Seconds
	}
	byKindFromNodes := map[string]float64{}
	for _, e := range led.NodeKinds() {
		byKindFromNodes[e.Kind] += e.Seconds
	}
	if len(byKindFromVJobs) != len(byKindFromNodes) {
		t.Fatalf("views disagree on charged dimensions: %v vs %v", byKindFromVJobs, byKindFromNodes)
	}
	for k, v := range byKindFromVJobs {
		if d := v - byKindFromNodes[k]; d > 1e-9 || d < -1e-9 {
			t.Errorf("dimension %s: vjob view %v vs node view %v", k, v, byKindFromNodes[k])
		}
	}

	// The ranked views expose the same mass as the ledger they rank.
	topSum := 0.0
	for _, s := range led.TopVJobs(0) {
		topSum += s.Seconds
	}
	if d := topSum - r.ViolationSeconds; d > 1e-9 || d < -1e-9 {
		t.Errorf("TopVJobs mass %v drifted from integral %v", topSum, r.ViolationSeconds)
	}
	if r.TopVJob == "" || r.TopVJobSeconds <= 0 || r.TopNode == "" || r.TopNodeSeconds <= 0 {
		t.Errorf("study columns empty on a violating run: %q/%.1f %q/%.1f",
			r.TopVJob, r.TopVJobSeconds, r.TopNode, r.TopNodeSeconds)
	}
	t.Logf("conserved %.1f violation-seconds across %d atoms; top vjob %s=%.1fs, top node %s=%.1fs",
		r.ViolationSeconds, len(led.Atoms()), r.TopVJob, r.TopVJobSeconds, r.TopNode, r.TopNodeSeconds)
}
