package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFig10Options(t *testing.T) {
	full := fig10Options(false, 7, 2, 1)
	if full.Samples != 30 || full.Timeout != 40*time.Second {
		t.Fatalf("full options = %+v, want the paper's 30 samples x 40s", full)
	}
	if full.Seed != 7 {
		t.Fatal("seed not forwarded")
	}
	if full.Workers != 2 {
		t.Fatal("workers not forwarded")
	}
	if full.Partitions != 1 {
		t.Fatal("partitions not forwarded")
	}
	quick := fig10Options(true, 7, 2, 1)
	if quick.Samples >= full.Samples || quick.Timeout >= full.Timeout {
		t.Fatal("quick options not reduced")
	}
	if len(quick.VMCounts) == 0 || len(quick.VMCounts) >= len(full.VMCounts) {
		t.Fatalf("quick VM counts = %v", quick.VMCounts)
	}
}

func TestPartitionOptions(t *testing.T) {
	full := partitionOptions(false, 3, 2, 0)
	if len(full.NodeCounts) != 3 || full.NodeCounts[2] != 2000 {
		t.Fatalf("full sweep = %v, want 100/500/2000", full.NodeCounts)
	}
	if full.Seed != 3 || full.Workers != 2 || full.Partitions != 0 {
		t.Fatalf("options not forwarded: %+v", full)
	}
	quick := partitionOptions(true, 3, 2, 0)
	if quick.NodeCounts[len(quick.NodeCounts)-1] >= full.NodeCounts[len(full.NodeCounts)-1] ||
		quick.Timeout >= full.Timeout {
		t.Fatalf("quick sweep not reduced: %+v", quick)
	}
}

func TestMultiResOptionsCLI(t *testing.T) {
	full := multiresOptions(false, 5, 2, 0)
	if full.Nodes != 500 || full.NodeNet == 0 || full.NodeDisk == 0 {
		t.Fatalf("full options = %+v, want the 500-node 4-dimension scenario", full)
	}
	if full.Seed != 5 || full.Workers != 2 || full.Partitions != 0 {
		t.Fatalf("options not forwarded: %+v", full)
	}
	quick := multiresOptions(true, 5, 1, 0)
	if quick.Nodes >= full.Nodes || quick.Timeout >= full.Timeout {
		t.Fatalf("quick options not reduced: %+v", quick)
	}
}

func TestClusterRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced cluster experiment")
	}
	fcfs, entropy := clusterRuns(true, 42, 1, 1, false)
	if fcfs.Completion <= 0 || entropy.Completion <= 0 {
		t.Fatalf("completions = %v / %v", fcfs.Completion, entropy.Completion)
	}
	if entropy.Completion >= fcfs.Completion {
		t.Fatalf("entropy (%v) not faster than fcfs (%v)", entropy.Completion, fcfs.Completion)
	}
	// fcfsOnly skips the entropy run.
	onlyF, none := clusterRuns(true, 42, 1, 1, true)
	if onlyF.Completion <= 0 {
		t.Fatal("fcfs-only run missing")
	}
	if none.Completion != 0 {
		t.Fatal("entropy run performed despite fcfsOnly")
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	writeCSV(dir, "x.csv", "a,b\n1,2\n")
	data, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b\n1,2\n" {
		t.Fatalf("content = %q", data)
	}
	// Empty dir is a no-op.
	writeCSV("", "y.csv", "ignored")
}

func TestChaosOptionsCLI(t *testing.T) {
	full := chaosOptions(false, 5, 2, 0, "web-tide")
	if full.Churn.Nodes != 500 || full.Bursts == 0 || full.Flappers == 0 || full.Loss.Fraction == 0 || full.StormRate == 0 {
		t.Fatalf("full options = %+v, want the 500-node scenario with every fault class armed", full)
	}
	if full.Churn.Seed != 5 || full.Churn.Workers != 2 || full.Churn.Partitions != 0 {
		t.Fatalf("options not forwarded: %+v", full.Churn)
	}
	if full.Trace != "web-tide" {
		t.Fatalf("trace not forwarded: %q", full.Trace)
	}
	quick := chaosOptions(true, 5, 1, 0, "batch-ramp")
	if quick.Churn.Nodes >= full.Churn.Nodes || quick.Churn.Horizon >= full.Churn.Horizon {
		t.Fatalf("quick options not reduced: %+v", quick.Churn)
	}
	if quick.BurstUntil > quick.Churn.Horizon || quick.FlapUntil > quick.Churn.Horizon || quick.Loss.Until > quick.Churn.Horizon {
		t.Fatalf("quick chaos windows outlive the horizon: %+v", quick)
	}
	if quick.Trace != "batch-ramp" {
		t.Fatalf("quick trace = %q", quick.Trace)
	}
}

func TestMigrationOptionsCLI(t *testing.T) {
	full := migrationOptions(false, 5, 2, 0)
	if full.Nodes != 500 || full.NICPoorFraction == 0 || full.Racks != 8 {
		t.Fatalf("full options = %+v, want the 500-node NIC-heterogeneous scenario", full)
	}
	if full.Seed != 5 || full.Workers != 2 || full.Partitions != 0 {
		t.Fatalf("options not forwarded: %+v", full)
	}
	quick := migrationOptions(true, 5, 1, 0)
	if quick.Nodes >= full.Nodes || quick.Timeout >= full.Timeout || quick.Racks >= full.Racks {
		t.Fatalf("quick options not reduced: %+v", quick)
	}
}

// TestAllWritesWhatTheSubcommandsWrite: "all" runs every study through
// its subcommand's code, so it writes the same CSV files, the span
// stream of the churn and chaos studies and their attribution lines.
// The two slow sweeps (fig10, partition) are left out to keep the
// test short.
func TestAllWritesWhatTheSubcommandsWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every reduced study")
	}
	list := slices.DeleteFunc(slices.Clone(studies), func(st study) bool {
		return st.name == "fig10" || st.name == "partition"
	})
	dir := t.TempDir()
	trace := filepath.Join(dir, "spans.jsonl")
	var out bytes.Buffer
	if code := run([]string{"all", "-quick", "-csv", dir, "-trace-out", trace}, &out, list); code != 0 {
		t.Fatalf("exit status %d", code)
	}
	for _, name := range []string{"fig3", "fig11", "fig13", "churn", "repairstorm", "drain", "multires", "migration", "chaos"} {
		if _, err := os.Stat(filepath.Join(dir, name+".csv")); err != nil {
			t.Errorf("%s.csv not written: %v", name, err)
		}
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("span stream not written: %v", err)
	}
	for _, label := range []string{"event-driven  top violators:", "baseline      top violators:"} {
		if !strings.Contains(out.String(), label) {
			t.Errorf("attribution line %q missing", label)
		}
	}
	if !strings.Contains(out.String(), "Figure 12 — allocation diagram") {
		t.Error("fig12 missing")
	}
}

func TestRunRejectsUnknownStudy(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"fig99"}, &out, studies); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
}
