package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/experiments"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
)

// The Test*Options* tests pin what every subcommand runs, with and
// without -quick, field by field: the values are the scenarios each
// study ran before its options became a testbed.Options or gained a
// core.Optimizer; the full ones are what each subcommand runs without
// -quick. Fields a study's Run function overwrites (Decision,
// EventDriven, StopWhenDone for churn) are left zero here.

// checkFields reports every field of got that differs from want, by
// its path through nested structs; both are the same struct type.
func checkFields(t *testing.T, label string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		name := label + "." + g.Type().Field(i).Name
		gf, wf := g.Field(i).Interface(), w.Field(i).Interface()
		switch {
		case reflect.DeepEqual(gf, wf):
		case g.Field(i).Kind() == reflect.Struct:
			checkFields(t, name, gf, wf)
		default:
			t.Errorf("%s = %+v, want %+v", name, gf, wf)
		}
	}
}

func TestFig10Options(t *testing.T) {
	full := experiments.Fig10Options{
		VMCounts:  []int{54, 108, 162, 216, 270, 324, 378, 432, 486},
		Samples:   30,
		Optimizer: core.Optimizer{Timeout: 40 * time.Second, Workers: 2, Partitions: 1},
		Seed:      7,
	}
	checkFields(t, "full", fig10Options(false, 7, 2, 1), full)
	quick := full
	quick.VMCounts = []int{54, 108, 162, 216}
	quick.Samples = 3
	quick.Optimizer.Timeout = 2 * time.Second
	checkFields(t, "quick", fig10Options(true, 7, 2, 1), quick)
}

func TestPartitionOptions(t *testing.T) {
	full := experiments.PartitionOptions{
		NodeCounts: []int{100, 500, 2000},
		Optimizer:  core.Optimizer{Timeout: 2 * time.Second, Workers: 2},
		Seed:       3,
	}
	checkFields(t, "full", partitionOptions(false, 3, 2, 0), full)
	quick := full
	quick.NodeCounts = []int{50, 100, 200}
	quick.Optimizer.Timeout = 500 * time.Millisecond
	checkFields(t, "quick", partitionOptions(true, 3, 2, 0), quick)
}

func TestMultiResOptionsCLI(t *testing.T) {
	full := experiments.MultiResOptions{
		Nodes:     500,
		Optimizer: core.Optimizer{Timeout: 2 * time.Second, Workers: 2},
		Seed:      5,
	}
	checkFields(t, "full", multiresOptions(false, 5, 2, 0), full)
	quick := full
	quick.Nodes = 48
	quick.Optimizer.Timeout = 500 * time.Millisecond
	checkFields(t, "quick", multiresOptions(true, 5, 2, 0), quick)
}

func TestMigrationOptionsCLI(t *testing.T) {
	full := experiments.MigrationOptions{
		Nodes:         500,
		Racks:         8,
		FencedVariant: true,
		Optimizer:     core.Optimizer{Timeout: 15 * time.Second, Workers: 2},
		Seed:          5,
	}
	checkFields(t, "full", migrationOptions(false, 5, 2, 0), full)
	quick := full
	quick.Nodes = 48
	quick.Racks = 2
	quick.Optimizer.Timeout = 250 * time.Millisecond
	checkFields(t, "quick", migrationOptions(true, 5, 2, 0), quick)
}

func TestClusterOptionsCLI(t *testing.T) {
	full := testbed.Options{
		Nodes: 11, NodeCPU: 2, NodeMemory: 3584,
		PaperNames: true,
		VJobs:      8, VMsPerVJob: 9,
		WorkScale:    1,
		MemoryFloor:  512,
		Interval:     30,
		Optimizer:    core.Optimizer{Timeout: 3 * time.Second, Workers: 2, Partitions: 1},
		StopWhenDone: true,
		Horizon:      100_000,
		Seed:         7,
	}
	checkFields(t, "full", clusterOptions(false, 7, 2, 1), full)
	quick := full
	quick.WorkScale = 0.5
	quick.Optimizer.Timeout = time.Second
	checkFields(t, "quick", clusterOptions(true, 7, 2, 1), quick)
}

// fullChurn is the full-size scenario of `experiments churn` at seed 5,
// two workers, automatic partitions.
func fullChurn() testbed.Options {
	return testbed.Options{
		Nodes: 500, NodeCPU: 2, NodeMemory: 4096,
		VJobs: 40, VMsPerVJob: 9,
		ArrivalRate: 1.0 / 30, ArrivalStop: 900,
		WorkScale: 1,
		Horizon:   6000,
		Interval:  30, Debounce: 5,
		Optimizer: core.Optimizer{Timeout: 500 * time.Millisecond, Workers: 2},
		Failures:  sim.FailureStorm{Base: 0.02},
		Seed:      5,
	}
}

// quickChurn is fullChurn as shapeChurn shrinks it.
func quickChurn(o testbed.Options) testbed.Options {
	o.Nodes, o.VJobs, o.VMsPerVJob = 64, 6, 4
	o.ArrivalStop = 200
	o.WorkScale = 0.2
	o.Horizon = 2000
	o.Optimizer.Timeout = 100 * time.Millisecond
	return o
}

func TestChurnOptionsCLI(t *testing.T) {
	checkFields(t, "full", churnOptions(false, 5, 2, 0), fullChurn())
	checkFields(t, "quick", churnOptions(true, 5, 2, 0), quickChurn(fullChurn()))
}

func TestDrainOptionsCLI(t *testing.T) {
	// The churn scenario without injected failures, arrivals stopping
	// at the drain order, the structural audit on. Interval stays the
	// churn default: the event-driven loop the drain runs ignores it.
	churn := fullChurn()
	churn.ArrivalStop = 600
	churn.Failures = sim.FailureStorm{}
	churn.WatchInvariants = true
	full := experiments.DrainOptions{Churn: churn, DrainFraction: 0.10, DrainAt: 600}
	checkFields(t, "full", drainOptions(false, 5, 2, 0), full)
	quick := experiments.DrainOptions{Churn: quickChurn(churn), DrainFraction: 0.10, DrainAt: 200}
	checkFields(t, "quick", drainOptions(true, 5, 2, 0), quick)
}

func TestChaosOptionsCLI(t *testing.T) {
	churn := fullChurn()
	churn.ArrivalStop = 600
	churn.Horizon = 3600
	full := experiments.ChaosOptions{
		Churn: churn,
		Racks: 10, Bursts: 3, BurstFrom: 600, BurstUntil: 1800, Outage: 400,
		Flappers: 8, FlapFrom: 600, FlapUntil: 1800, MeanDown: 30, MeanUp: 120,
		Loss:      sim.EventLoss{From: 600, Until: 1500},
		StormRate: 0.30, StormFrom: 600, StormUntil: 1200,
		Trace: "web-tide",
	}
	checkFields(t, "full", chaosOptions(false, 5, 2, 0, "web-tide"), full)

	churn = quickChurn(churn)
	churn.Nodes, churn.VJobs = 48, 5
	churn.ArrivalRate, churn.ArrivalStop = 1.0/40, 300
	churn.Horizon = 2400
	quick := experiments.ChaosOptions{
		Churn: churn,
		Racks: 8, Bursts: 2, BurstFrom: 100, BurstUntil: 600, Outage: 150,
		Flappers: 4, FlapFrom: 100, FlapUntil: 600, MeanDown: 20, MeanUp: 60,
		Loss:      sim.EventLoss{From: 60, Until: 600},
		StormRate: 0.25, StormFrom: 60, StormUntil: 400,
		ResyncInterval: 40,
		Trace:          "batch-ramp",
	}
	got := chaosOptions(true, 5, 2, 0, "batch-ramp")
	checkFields(t, "quick", got, quick)
	if got.BurstUntil > got.Churn.Horizon || got.FlapUntil > got.Churn.Horizon || got.Loss.Until > got.Churn.Horizon {
		t.Fatalf("quick chaos windows outlive the horizon: %+v", got)
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
	for _, name := range []string{"fig3", "fig11", "fig13", "churn", "drain", "multires", "migration", "chaos"} {
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

// TestRunRejectsOutOfRangeFlags: a negative -workers, or a -partitions
// below its -1 sentinel, exits 2 before any study runs.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	ran := false
	list := []study{{name: "probe", run: func(*env) { ran = true }}}
	for _, bad := range [][]string{
		{"-workers", "-2"},
		{"-partitions", "-2"},
	} {
		var out bytes.Buffer
		if code := run(append([]string{"probe"}, bad...), &out, list); code != 2 || ran || out.Len() != 0 {
			t.Errorf("%s %s: exit status %d, study ran %t, output %q", bad[0], bad[1], code, ran, out.String())
		}
	}
	if code := run([]string{"probe", "-workers", "0", "-partitions", "-1"}, &bytes.Buffer{}, list); code != 0 || !ran {
		t.Fatalf("the lowest values in range: exit status %d, study ran %t", code, ran)
	}
}
