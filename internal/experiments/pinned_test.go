package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/monitor"
	"cwcs/internal/sched"
)

// pinnedTimeout is the per-solve budget of every pinned cell: far
// more than any of their solves needs, so with Workers: 1 each search
// ends on a proof and the run repeats exactly. A cell whose whole run
// takes longer than this may hold a solve the clock ended; the test
// fails on it instead of pinning a transcript that depends on the
// machine.
const pinnedTimeout = 30 * time.Second

// pinnedRun is what one loop run decided, as far as a study exposes
// it.
type pinnedRun struct {
	csv                 string
	stats               core.LoopStats
	records             []core.SwitchRecord
	arrived, completed  int
	end                 float64
	actions             map[string]int
	localOps, remoteOps int
	// ledger is nil for the cluster cells, whose transcript predates
	// their having one.
	ledger *monitor.Ledger
	wall   time.Duration
}

// transcript renders the run: everything but the wall time.
func (r pinnedRun) transcript(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n%s", name, r.csv)
	fmt.Fprintf(&b, "stats %+v\n", r.stats)
	for _, s := range r.records {
		fmt.Fprintf(&b, "switch at=%v cost=%d actions=%d pools=%d duration=%v failures=%d\n",
			s.At, s.Cost, s.Actions, s.Pools, s.Duration, s.Failures)
	}
	fmt.Fprintf(&b, "arrived=%d completed=%d end=%v\n", r.arrived, r.completed, r.end)
	fmt.Fprintf(&b, "actions %v local=%d remote=%d\n", r.actions, r.localOps, r.remoteOps)
	if r.ledger != nil {
		b.WriteString("top")
		for _, s := range r.ledger.TopVJobs(3) {
			fmt.Fprintf(&b, " %s=%v", s.VJob, s.Seconds)
		}
		b.WriteString(" |")
		for _, s := range r.ledger.TopNodes(3) {
			fmt.Fprintf(&b, " %s=%v", s.Node, s.Seconds)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func pinnedCluster(decision core.DecisionModule, opts ClusterOptions) pinnedRun {
	start := time.Now()
	r := RunCluster(decision, opts)
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
	return pinnedRun{
		csv: b.String(), stats: r.Stats, records: r.Records,
		arrived: opts.VJobs, completed: len(r.JobEnd), end: r.End,
		actions: r.ActionCounts, localOps: r.LocalOps, remoteOps: r.RemoteOps,
		wall: time.Since(start),
	}
}

func pinnedChurn(eventDriven bool, opts ChurnOptions) pinnedRun {
	r := RunChurn(eventDriven, opts)
	return pinnedRun{
		csv: ChurnCSV([]ChurnResult{r}), stats: r.Stats, records: r.Records,
		arrived: r.Arrived, completed: r.Completed, end: r.End,
		actions: r.ActionCounts, localOps: r.LocalOps, remoteOps: r.RemoteOps,
		ledger: r.Ledger, wall: r.Wall,
	}
}

func pinnedChaos(scenario string, opts ChaosOptions) pinnedRun {
	r := RunChaos(scenario, opts)
	return pinnedRun{
		csv: ChaosCSV([]ChaosResult{r}), stats: r.Stats, records: r.Records,
		arrived: r.Arrived, completed: r.Completed, end: r.End,
		actions: r.ActionCounts, localOps: r.LocalOps, remoteOps: r.RemoteOps,
		ledger: r.Ledger, wall: r.Wall,
	}
}

func pinnedDrain(opts DrainOptions) pinnedRun {
	r := RunDrain(opts)
	return pinnedRun{
		csv: DrainCSV(r), stats: r.Stats, records: r.Records,
		arrived: r.Arrived, completed: r.Completed, end: r.End,
		actions: r.ActionCounts, localOps: r.LocalOps, remoteOps: r.RemoteOps,
		ledger: r.Ledger, wall: r.Wall,
	}
}

// TestStudiesPinned pins what the control loop decides in every study
// that wires one — the §5.2 cluster run under both decision modules,
// churn under both schedules and under the repair-storm settings, all
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
	add := func(name string, r pinnedRun) {
		if r.wall >= pinnedTimeout {
			t.Errorf("%s took %v: a solve may have run into the %v budget", name, r.wall, pinnedTimeout)
		}
		b.WriteString(r.transcript(name))
	}

	cluster := quickClusterOptions()
	cluster.Timeout = pinnedTimeout
	fcfs := cluster
	fcfs.PinRunning = true
	add("cluster fcfs", pinnedCluster(sched.StaticFCFS{ReserveFullCPU: true}, fcfs))
	add("cluster consolidation", pinnedCluster(sched.Consolidation{}, cluster))

	churn := quickChurnOptions()
	churn.Timeout = pinnedTimeout
	// The periodic cell runs on 48 nodes: on the quick 64 one slice of
	// the monolithic re-solve needs seconds to prove its optimum, which
	// under -race the clock would end first.
	periodic := churn
	periodic.Nodes = 48
	add("churn periodic", pinnedChurn(false, periodic))
	add("churn event-driven", pinnedChurn(true, churn))
	storm := churn
	storm.WatchInvariants = true
	storm.FailureRate = 0.10
	storm.StormRate, storm.StormFrom, storm.StormUntil = 0.30, 100, 300
	storm.RepairWiden = -1
	add("churn storm widen=off", pinnedChurn(true, storm))
	storm.RepairWiden = 0
	add("churn storm widen=on", pinnedChurn(true, storm))

	chaos := quickChaosOptions()
	chaos.Churn.Timeout = pinnedTimeout
	for _, s := range ChaosScenarios() {
		add("chaos "+s, pinnedChaos(s, chaos))
	}

	drain := quickDrainOptions()
	drain.Timeout = pinnedTimeout
	add("drain", pinnedDrain(drain))

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
