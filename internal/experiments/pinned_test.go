package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
)

// pinnedTimeout is the per-solve budget of every pinned cell: far
// more than any of their solves needs, so with Workers: 1 each search
// ends on a proof and the run repeats exactly. A cell whose whole run
// takes longer than this may hold a solve the clock ended; the test
// fails on it instead of comparing a transcript that depends on the
// machine.
const pinnedTimeout = 30 * time.Second

// pinnedRun renders what one run decided — the study's CSV, then the
// loop's counters, every switch, the workload's fate, the simulator's
// tallies and the ledger's worst three vjobs and nodes: everything but
// the wall time. The cluster cells print no ledger: their transcript
// predates their having one.
func pinnedRun(name, csv string, s testbed.Summary, ledger bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n%s", name, csv)
	fmt.Fprintf(&b, "stats %+v\n", s.Stats)
	for _, r := range s.Records {
		fmt.Fprintf(&b, "switch at=%v cost=%d actions=%d pools=%d duration=%v failures=%d\n",
			r.At, r.Cost, r.Actions, r.Pools, r.Duration, r.Failures)
	}
	fmt.Fprintf(&b, "arrived=%d completed=%d end=%v\n", s.Arrived, s.Completed, s.End)
	fmt.Fprintf(&b, "actions %v local=%d remote=%d\n", s.ActionCounts, s.LocalOps, s.RemoteOps)
	if ledger {
		b.WriteString("top")
		for _, e := range s.Ledger.TopVJobs(3) {
			fmt.Fprintf(&b, " %s=%v", e.VJob, e.Seconds)
		}
		b.WriteString(" |")
		for _, e := range s.Ledger.TopNodes(3) {
			fmt.Fprintf(&b, " %s=%v", e.Node, e.Seconds)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// clusterCSV is the cluster run's part of the transcript: Figure 11's
// rows, the completion times and the Gantt diagram.
func clusterCSV(r ClusterResult) string {
	var b strings.Builder
	b.WriteString(Fig11CSV(r))
	names := make([]string, 0, len(r.JobEnd))
	for name := range r.JobEnd {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "completion=%v samples=%d\n", r.Completion, len(r.Samples))
	for _, name := range names {
		fmt.Fprintf(&b, "end %s=%v\n", name, r.JobEnd[name])
	}
	b.WriteString(r.Gantt.Render(72))
	return b.String()
}

// TestStudiesPinned pins what the control loop decides in every study
// that wires one — the §5.2 cluster run under both decision modules,
// churn under both schedules and under a failure storm, all
// six chaos cells, the drain study — each at its quick options with
// Workers: 1. The transcript was captured at 61520c9, the last commit
// at which each study (and cmd/entropyd) wired cluster, workload, loop,
// actuator, event feed and watchers by hand; it passing unchanged says
// internal/testbed schedules, subscribes and draws in the order each
// of them did.
func TestStudiesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every loop study")
	}
	var b strings.Builder
	add := func(name, csv string, s testbed.Summary, ledger bool) {
		if s.Wall >= pinnedTimeout {
			t.Errorf("%s took %v: a solve may have run into the %v budget", name, s.Wall, pinnedTimeout)
		}
		b.WriteString(pinnedRun(name, csv, s, ledger))
	}

	cluster := quickClusterOptions()
	cluster.Optimizer.Timeout = pinnedTimeout
	fcfs := cluster
	fcfs.Optimizer.PinRunning = true
	r := RunCluster(sched.StaticFCFS{}, fcfs)
	add("cluster fcfs", clusterCSV(r), r.Summary, false)
	r = RunCluster(sched.Consolidation{}, cluster)
	add("cluster consolidation", clusterCSV(r), r.Summary, false)

	churn := quickChurnOptions()
	churn.Optimizer.Timeout = pinnedTimeout
	addChurn := func(name string, eventDriven bool, opts testbed.Options) {
		r := RunChurn(eventDriven, opts)
		add(name, ChurnCSV([]ChurnResult{r}), r.Summary, true)
	}
	// The periodic cell runs on 48 nodes: on the quick 64 one slice of
	// the monolithic re-solve needs seconds to prove its optimum, which
	// under -race the clock would end first.
	periodic := churn
	periodic.Nodes = 48
	addChurn("churn periodic", false, periodic)
	addChurn("churn event-driven", true, churn)
	storm := churn
	storm.WatchInvariants = true
	storm.Failures = sim.FailureStorm{Base: 0.10, Storm: 0.30, From: 100, Until: 300}
	addChurn("churn storm", true, storm)

	chaos := quickChaosOptions()
	chaos.Churn.Optimizer.Timeout = pinnedTimeout
	for _, sc := range ChaosScenarios() {
		r := RunChaos(sc, chaos)
		add("chaos "+sc, ChaosCSV([]ChaosResult{r}), r.Summary, true)
	}

	drain := quickDrainOptions()
	drain.Churn.Optimizer.Timeout = pinnedTimeout
	d := RunDrain(drain)
	add("drain", DrainCSV(d), d.Summary, true)

	got := b.String()
	const golden = "testdata/studies_pinned.txt"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing pinned transcript (run with -update at a commit known good): %v", err)
	}
	if got != string(want) {
		t.Fatalf("a study's run moved; first difference:\n%s", firstDiff(string(want), got))
	}
}

// firstDiff names the first line two transcripts disagree on.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	section := ""
	for i := 0; i < len(w) && i < len(g); i++ {
		if strings.HasPrefix(w[i], "== ") {
			section = w[i]
		}
		if w[i] != g[i] {
			return fmt.Sprintf("%s line %d\n  pinned: %s\n  got:    %s", section, i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: pinned %d lines, got %d", len(w), len(g))
}
