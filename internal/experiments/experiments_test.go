package experiments

import (
	"strings"
	"testing"
	"time"

	"cwcs/internal/sched"
	"cwcs/internal/testbed"
)

func TestFig1Rendering(t *testing.T) {
	out := Fig1()
	for _, want := range []string{"FCFS", "EASY backfilling", "preemption", "makespan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig1 missing %q", want)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1(1024)
	for _, want := range []string{"migrate(vmj)", "1024", "2048", "resume(vmj) remote"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig3ShapesMatchPaper(t *testing.T) {
	rows := Fig3(512, 1024, 2048)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// Run/stop constant and memory-independent.
		if r.Run != rows[0].Run || r.Stop != rows[0].Stop {
			t.Fatal("run/stop depend on memory")
		}
		// Migrate/suspend/resume increase with memory.
		if i > 0 {
			prev := rows[i-1]
			if r.Migrate <= prev.Migrate || r.SuspendLocal <= prev.SuspendLocal || r.ResumeLocal <= prev.ResumeLocal {
				t.Fatalf("durations not increasing at %d MiB", r.MemMiB)
			}
		}
		// Remote roughly twice local.
		if ratio := r.SuspendSCP / r.SuspendLocal; ratio < 1.7 || ratio > 2.3 {
			t.Fatalf("scp/local suspend ratio = %.2f", ratio)
		}
		if ratio := r.ResumeSCP / r.ResumeLocal; ratio < 1.7 || ratio > 2.3 {
			t.Fatalf("scp/local resume ratio = %.2f", ratio)
		}
		// rsync slightly cheaper than scp, dearer than local.
		if !(r.SuspendLocal < r.SuspendRsync && r.SuspendRsync < r.SuspendSCP) {
			t.Fatal("rsync ordering broken")
		}
		// Deceleration ~1.3 local, ~1.5 remote.
		if r.DecelBusyLocal < 1.25 || r.DecelBusyLocal > 1.35 {
			t.Fatalf("local decel = %.2f", r.DecelBusyLocal)
		}
		if r.DecelBusyRemote < 1.45 || r.DecelBusyRemote > 1.55 {
			t.Fatalf("remote decel = %.2f", r.DecelBusyRemote)
		}
	}
	if !strings.Contains(Fig3Table(rows), "migrate") {
		t.Fatal("fig3 table")
	}
}

// quickFig10Options keeps the scalability study small enough for unit
// tests.
func quickFig10Options() Fig10Options {
	o := DefaultFig10Options()
	o.VMCounts = []int{54, 108}
	o.Samples = 2
	// 1.5 s leaves the 108-VM samples enough budget to beat the FFD
	// seed even under race instrumentation on a busy 1-core host —
	// 500 ms was observed to flake there (reduction 0%).
	o.Optimizer.Timeout = 1500 * time.Millisecond
	// Sequential search: a portfolio race under a sub-second budget
	// makes the numeric assertions timing- and core-count-dependent.
	o.Optimizer.Workers = 1
	return o
}

func TestFig10EntropyCheaperThanFFD(t *testing.T) {
	rows := Fig10(quickFig10Options())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Fatalf("no successful samples at %d VMs", r.VMs)
		}
		if r.EntropyMean > r.FFDMean {
			t.Fatalf("%d VMs: entropy %f > ffd %f", r.VMs, r.EntropyMean, r.FFDMean)
		}
		// The headline claim is a large reduction (paper: ~95% with a
		// 40 s budget and 30 samples). The quick configuration uses a
		// 500 ms budget and 2 samples, so accept a modest floor here;
		// the full-scale bench reproduces the big gap.
		if r.ReductionPct < 15 {
			t.Fatalf("%d VMs: reduction only %.1f%%", r.VMs, r.ReductionPct)
		}
	}
	if !strings.Contains(Fig10Table(rows), "Entropy") {
		t.Fatal("fig10 table")
	}
}

// quickClusterOptions shrinks the §5.2 run for tests.
func quickClusterOptions() testbed.Options {
	o := DefaultClusterOptions()
	o.WorkScale = 0.5
	o.Horizon = 50_000
	o.Optimizer.Timeout = time.Second
	// Sequential search, for run-to-run reproducibility of the
	// asserted completion/switch numbers.
	o.Optimizer.Workers = 1
	return o
}

func TestClusterEntropyBeatsFCFS(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment is seconds-long")
	}
	opts := quickClusterOptions()
	fopts := opts
	fopts.Optimizer.PinRunning = true // a static RMS never migrates
	fcfs := RunCluster(sched.StaticFCFS{}, fopts)
	entropy := RunCluster(sched.Consolidation{}, opts)

	if fcfs.Completion >= opts.Horizon || entropy.Completion >= opts.Horizon {
		t.Fatalf("horizon hit: fcfs=%.0f entropy=%.0f", fcfs.Completion, entropy.Completion)
	}
	// The headline §5.2 claim: dynamic consolidation with cluster-wide
	// context switches finishes the workload substantially sooner
	// (paper: 250 min -> 150 min, -40%).
	if entropy.Completion >= fcfs.Completion {
		t.Fatalf("entropy %.0f s not faster than fcfs %.0f s", entropy.Completion, fcfs.Completion)
	}
	reduction := 1 - entropy.Completion/fcfs.Completion
	if reduction < 0.10 {
		t.Fatalf("reduction only %.0f%%", reduction*100)
	}
	// Entropy performed context switches; FCFS performed only
	// run/stop-style switches (no suspends).
	if len(entropy.Records) == 0 {
		t.Fatal("no context switches recorded")
	}
	if fcfs.ActionCounts["suspend"] != 0 {
		t.Fatal("static FCFS must never suspend")
	}
	if fcfs.ActionCounts["migrate"] != 0 {
		t.Fatal("pinned static FCFS must never migrate")
	}
	// Resumes should be mostly local (paper: 21 of 28).
	if entropy.ActionCounts["resume"] > 0 && entropy.RemoteOps > entropy.LocalOps {
		t.Fatalf("mostly-remote transfers: %d local vs %d remote", entropy.LocalOps, entropy.RemoteOps)
	}
	// Rendering smoke checks.
	if !strings.Contains(Fig11Table(entropy), "context switches") {
		t.Fatal("fig11 table")
	}
	if entropy.Gantt.Render(60) == "(empty)\n" {
		t.Fatal("empty gantt")
	}
	if !strings.Contains(Fig13Table(fcfs, entropy), "reduction") {
		t.Fatal("fig13 table")
	}
}
