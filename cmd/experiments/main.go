// Command experiments regenerates the tables and figures of the
// paper's evaluation. Each subcommand prints the rows/series of one
// table or figure:
//
//	experiments fig1              backfilling schematic (FCFS / EASY / EASY+preemption)
//	experiments table1            action cost model
//	experiments fig3              action durations vs VM memory
//	experiments fig10 [-quick]    FFD vs Entropy reconfiguration costs (200 nodes)
//	experiments fig11 [-quick]    cost & duration of the cluster run's context switches
//	experiments fig12 [-quick]    allocation diagram under static FCFS
//	experiments fig13 [-quick]    utilization & completion, Entropy vs FCFS
//	experiments partition [-quick] partitioned vs monolithic solve scaling
//	experiments churn [-quick]    periodic vs event-driven loop under churn
//	experiments drain [-quick]    drain/evacuate a node fraction under churn
//	experiments multires [-quick] CPU-only vs multi-dimensional packing
//	experiments migration [-quick] transfer-blind vs bandwidth-aware planner
//	experiments chaos [-quick]    fault-injection cells + trace replay, recovery distributions
//	experiments all  [-quick]     everything above
//
// -quick shrinks sample counts, solver budgets and workload durations
// so the full set completes in seconds; without it the fig10 sweep
// uses the paper's 30 samples × 40 s budget and runs for hours.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cwcs/internal/experiments"
	"cwcs/internal/monitor"
	"cwcs/internal/obs"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// The CLI is subcommand-first, so -version must be caught before
	// subcommand dispatch rejects it as an unknown command.
	if cmd := os.Args[1]; cmd == "version" || cmd == "-version" || cmd == "--version" {
		info := obs.BuildInfo()
		fmt.Printf("experiments %s %s\n", info.Version, info.GoVersion)
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, studies))
}

// run executes one subcommand — a study of the list, or "all" for
// every study in list order — printing its tables to out, and returns
// the exit status.
func run(args []string, out io.Writer, list []study) int {
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced samples/budgets for a fast run")
	seed := fs.Int64("seed", 42, "workload seed")
	// Defaults to sequential: the portfolio race's outcome depends on
	// goroutine timing, and the published figures must reproduce from a
	// seed alone. Opt in with -workers N (or 0 for GOMAXPROCS).
	workers := fs.Int("workers", 1, "parallel portfolio workers per optimization (1 = sequential/reproducible, 0 = GOMAXPROCS)")
	// -1 = per-command default: the paper figures stay on the
	// monolithic model they were published with (1); the partition
	// study's partitioned side defaults to auto (0).
	partitions := fs.Int("partitions", -1, "cluster partitions solved concurrently (0 = auto, 1 = monolithic)")
	csvDir := fs.String("csv", "", "also write <figure>.csv files into this directory")
	traceName := fs.String("trace", "web-tide", "committed sample trace the chaos replay cell feeds the loop")
	scenarios := fs.String("scenario", "", "comma-separated chaos cells to run (default: all; see experiments chaos -quick)")
	traceOut := fs.String("trace-out", "", "write the span stream of churn/chaos runs to this JSONL file (load with /v1/trace tooling or Perfetto)")
	if err := fs.Parse(args[1:]); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	// Out of range, -workers would race GOMAXPROCS workers, so a figure
	// would stop reproducing from its seed, and -partitions would pass
	// for its default.
	var err error
	switch {
	case *workers < 0:
		err = fmt.Errorf("-workers must be 0 or more, not %d", *workers)
	case *partitions < -1:
		err = fmt.Errorf("-partitions must be -1 or more, not %d", *partitions)
	}
	if err != nil {
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return 2
	}
	todo := list
	if cmd != "all" {
		todo = nil
		for _, st := range list {
			if st.name == cmd {
				todo = []study{st}
			}
		}
		if todo == nil {
			usage()
			return 2
		}
	}
	e := &env{
		out: out, quick: *quick, seed: *seed, workers: *workers,
		figParts: *partitions, studyParts: *partitions,
		csvDir: *csvDir, traceName: *traceName, traceOut: *traceOut,
	}
	if e.figParts < 0 {
		e.figParts = 1
	}
	if e.studyParts < 0 {
		e.studyParts = 0
	}
	if *scenarios != "" {
		e.scenarios = strings.Split(*scenarios, ",")
		for _, s := range e.scenarios {
			if !knownScenario(s) {
				fmt.Fprintf(os.Stderr, "experiments: unknown chaos scenario %q (have %s)\n",
					s, strings.Join(experiments.ChaosScenarios(), ", "))
				return 2
			}
		}
	}
	for i, st := range todo {
		if i > 0 {
			fmt.Fprintln(out)
		}
		st.run(e)
	}
	if e.traced {
		writeTrace(e.traceOut, e.spans)
	}
	return 0
}

// env is what every study reads: the parsed flags, the output, and
// what studies share or collect across one invocation.
type env struct {
	out                  io.Writer
	quick                bool
	seed                 int64
	workers              int
	figParts, studyParts int
	csvDir               string
	traceName, traceOut  string
	scenarios            []string

	pair   *[2]experiments.ClusterResult // the §5.2 FCFS and Entropy runs
	traced bool                          // a study collected spans
	spans  []obs.SpanRecord
}

// cluster returns the §5.2 runs, run once per invocation: fig11, fig12
// and fig13 share them. fcfsOnly skips the Entropy run when nothing
// has run the pair yet.
func (e *env) cluster(fcfsOnly bool) (fcfs, entropy experiments.ClusterResult) {
	if e.pair == nil {
		fcfs, entropy = clusterRuns(e.quick, e.seed, e.workers, e.figParts, fcfsOnly)
		if fcfsOnly {
			return fcfs, entropy
		}
		e.pair = &[2]experiments.ClusterResult{fcfs, entropy}
	}
	return e.pair[0], e.pair[1]
}

// study is one subcommand: a table or figure, printed to env.out and
// written to its CSV when -csv was given.
type study struct {
	name string
	run  func(e *env)
}

// studies are the subcommands, in the order "all" runs them.
var studies = []study{
	{"fig1", func(e *env) { fmt.Fprint(e.out, experiments.Fig1()) }},
	{"table1", func(e *env) { fmt.Fprint(e.out, experiments.Table1(1024)) }},
	{"fig3", func(e *env) {
		rows := experiments.Fig3(512, 1024, 2048)
		fmt.Fprint(e.out, experiments.Fig3Table(rows))
		writeCSV(e.csvDir, "fig3.csv", experiments.Fig3CSV(rows))
	}},
	{"fig10", func(e *env) {
		rows := experiments.Fig10(fig10Options(e.quick, e.seed, e.workers, e.figParts))
		fmt.Fprint(e.out, experiments.Fig10Table(rows))
		writeCSV(e.csvDir, "fig10.csv", experiments.Fig10CSV(rows))
	}},
	{"fig11", func(e *env) {
		_, ent := e.cluster(false)
		fmt.Fprint(e.out, experiments.Fig11Table(ent))
		writeCSV(e.csvDir, "fig11.csv", experiments.Fig11CSV(ent))
	}},
	{"fig12", func(e *env) {
		fcfs, _ := e.cluster(true)
		fmt.Fprintln(e.out, "Figure 12 — allocation diagram, static FCFS scheduler")
		fmt.Fprint(e.out, fcfs.Gantt.Render(72))
	}},
	{"fig13", func(e *env) {
		fcfs, ent := e.cluster(false)
		fmt.Fprint(e.out, experiments.Fig13Table(fcfs, ent))
		writeCSV(e.csvDir, "fig13.csv", experiments.Fig13CSV(fcfs, ent))
	}},
	{"partition", func(e *env) {
		rows := experiments.PartitionStudy(partitionOptions(e.quick, e.seed, e.workers, e.studyParts))
		fmt.Fprint(e.out, experiments.PartitionTable(rows))
		writeCSV(e.csvDir, "partition.csv", experiments.PartitionCSV(rows))
	}},
	{"churn", func(e *env) {
		co := churnOptions(e.quick, e.seed, e.workers, e.studyParts)
		co.CollectSpans = e.traceOut != ""
		rows := experiments.ChurnStudy(co)
		fmt.Fprint(e.out, experiments.ChurnTable(rows))
		for _, r := range rows {
			printAttribution(e.out, r.Mode, r.Ledger)
			e.spans = append(e.spans, r.Spans...)
		}
		e.traced = true
		writeCSV(e.csvDir, "churn.csv", experiments.ChurnCSV(rows))
	}},
	{"drain", func(e *env) {
		r := experiments.RunDrain(drainOptions(e.quick, e.seed, e.workers, e.studyParts))
		fmt.Fprint(e.out, experiments.DrainTable(r))
		writeCSV(e.csvDir, "drain.csv", experiments.DrainCSV(r))
	}},
	{"multires", func(e *env) {
		r := experiments.RunMultiRes(multiresOptions(e.quick, e.seed, e.workers, e.studyParts))
		fmt.Fprint(e.out, experiments.MultiResTable(r))
		writeCSV(e.csvDir, "multires.csv", experiments.MultiResCSV(r))
	}},
	{"migration", func(e *env) {
		r := experiments.RunMigration(migrationOptions(e.quick, e.seed, e.workers, e.studyParts))
		fmt.Fprint(e.out, experiments.MigrationTable(r))
		writeCSV(e.csvDir, "migration.csv", experiments.MigrationCSV(r))
	}},
	{"chaos", func(e *env) {
		co := chaosOptions(e.quick, e.seed, e.workers, e.studyParts, e.traceName)
		co.Churn.CollectSpans = e.traceOut != ""
		co.Scenarios = e.scenarios
		rows := experiments.ChaosStudy(co)
		fmt.Fprint(e.out, experiments.ChaosTable(rows))
		for _, r := range rows {
			printAttribution(e.out, r.Scenario, r.Ledger)
			e.spans = append(e.spans, r.Spans...)
		}
		e.traced = true
		writeCSV(e.csvDir, "chaos.csv", experiments.ChaosCSV(rows))
	}},
}

func fig10Options(quick bool, seed int64, workers, partitions int) experiments.Fig10Options {
	o := experiments.DefaultFig10Options()
	o.Seed = seed
	o.Optimizer.Workers = workers
	o.Optimizer.Partitions = partitions
	if quick {
		o.VMCounts = []int{54, 108, 162, 216}
		o.Samples = 3
		o.Optimizer.Timeout = 2 * time.Second
	}
	return o
}

// partitionOptions shapes the partitioned-vs-monolithic scaling sweep.
func partitionOptions(quick bool, seed int64, workers, partitions int) experiments.PartitionOptions {
	o := experiments.DefaultPartitionOptions()
	o.Seed = seed
	o.Optimizer.Workers = workers
	o.Optimizer.Partitions = partitions
	if quick {
		o.NodeCounts = []int{50, 100, 200}
		o.Optimizer.Timeout = 500 * time.Millisecond
	}
	return o
}

// shapeChurn sets the seed and the optimizer of a churn scenario and,
// under quick, shrinks it to a 64-node cluster.
func shapeChurn(o *testbed.Options, quick bool, seed int64, workers, partitions int) {
	o.Seed = seed
	o.Optimizer.Workers = workers
	o.Optimizer.Partitions = partitions
	if quick {
		o.Nodes = 64
		o.VJobs = 6
		o.VMsPerVJob = 4
		o.ArrivalStop = 200
		o.WorkScale = 0.2
		o.Horizon = 2000
		o.Optimizer.Timeout = 100 * time.Millisecond
	}
}

// churnOptions shapes the periodic-vs-event-driven loop study.
func churnOptions(quick bool, seed int64, workers, partitions int) testbed.Options {
	o := experiments.DefaultChurnOptions()
	shapeChurn(&o, quick, seed, workers, partitions)
	return o
}

// drainOptions shapes the node-maintenance evacuation study: the churn
// shape, with the drain order when the quick arrivals stop.
func drainOptions(quick bool, seed int64, workers, partitions int) experiments.DrainOptions {
	o := experiments.DefaultDrainOptions()
	shapeChurn(&o.Churn, quick, seed, workers, partitions)
	if quick {
		o.DrainAt = 200
	}
	return o
}

// multiresOptions shapes the multi-dimensional packing study.
func multiresOptions(quick bool, seed int64, workers, partitions int) experiments.MultiResOptions {
	o := experiments.DefaultMultiResOptions()
	o.Seed = seed
	o.Optimizer.Workers = workers
	o.Optimizer.Partitions = partitions
	if quick {
		o.Nodes = 48
		o.Optimizer.Timeout = 500 * time.Millisecond
	}
	return o
}

// migrationOptions shapes the bandwidth-aware context-switch study.
func migrationOptions(quick bool, seed int64, workers, partitions int) experiments.MigrationOptions {
	o := experiments.DefaultMigrationOptions()
	o.Seed = seed
	o.Optimizer.Workers = workers
	o.Optimizer.Partitions = partitions
	if quick {
		o.Nodes = 48
		o.Racks = 2
		o.Optimizer.Timeout = 250 * time.Millisecond
	}
	return o
}

// chaosOptions shapes the fault-injection study. Quick shrinks the
// churn shape further and opens every chaos window right after the
// arrival wave, so each cell perturbs a workload that is still live.
func chaosOptions(quick bool, seed int64, workers, partitions int, traceName string) experiments.ChaosOptions {
	o := experiments.DefaultChaosOptions()
	shapeChurn(&o.Churn, quick, seed, workers, partitions)
	o.Trace = traceName
	if quick {
		o.Churn.Nodes = 48
		o.Churn.VJobs = 5
		o.Churn.ArrivalRate = 1.0 / 40
		o.Churn.ArrivalStop = 300
		o.Churn.Horizon = 2400
		o.Racks, o.Bursts, o.BurstFrom, o.BurstUntil, o.Outage = 8, 2, 100, 600, 150
		o.Flappers, o.FlapFrom, o.FlapUntil, o.MeanDown, o.MeanUp = 4, 100, 600, 20, 60
		o.Loss = sim.EventLoss{From: 60, Until: 600}
		o.StormRate, o.StormFrom, o.StormUntil = 0.25, 60, 400
		o.ResyncInterval = 40
	}
	return o
}

func knownScenario(name string) bool {
	for _, s := range experiments.ChaosScenarios() {
		if s == name {
			return true
		}
	}
	return false
}

// clusterOptions shapes the §5.2 experiment.
func clusterOptions(quick bool, seed int64, workers, partitions int) testbed.Options {
	o := experiments.DefaultClusterOptions()
	o.Seed = seed
	o.Optimizer.Workers = workers
	o.Optimizer.Partitions = partitions
	if quick {
		o.WorkScale = 0.5
		o.Optimizer.Timeout = time.Second
	}
	return o
}

// clusterRuns executes the §5.2 experiment under both decision
// modules. fcfsOnly skips the Entropy run (for fig12).
func clusterRuns(quick bool, seed int64, workers, partitions int, fcfsOnly bool) (fcfs, entropy experiments.ClusterResult) {
	opts := clusterOptions(quick, seed, workers, partitions)
	fopts := opts
	fopts.Optimizer.PinRunning = true // a static RMS never migrates
	fcfs = experiments.RunCluster(sched.StaticFCFS{}, fopts)
	if !fcfsOnly {
		entropy = experiments.RunCluster(sched.Consolidation{}, opts)
	}
	return fcfs, entropy
}

// writeTrace stores the collected span stream as JSONL when
// -trace-out was given.
func writeTrace(path string, spans []obs.SpanRecord) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if err := obs.WriteJSONL(f, spans); err == nil {
		err = f.Close()
	} else {
		_ = f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d spans)\n", path, len(spans))
}

// printAttribution is the CLI mirror of GET /v1/violations: one line
// per study row naming who absorbed the violation exposure. Silent
// for clean runs.
func printAttribution(out io.Writer, label string, led *monitor.Ledger) {
	if led.Total() == 0 {
		return
	}
	fmt.Fprintf(out, "%-13s top violators:", label)
	for _, s := range led.TopVJobs(3) {
		fmt.Fprintf(out, " vjob %s=%.0fs", s.VJob, s.Seconds)
	}
	for _, s := range led.TopNodes(3) {
		fmt.Fprintf(out, " node %s=%.0fs", s.Node, s.Seconds)
	}
	if rb := led.RuleBreachSeconds(); rb > 0 {
		fmt.Fprintf(out, " rule-breach=%.0fs", rb)
	}
	fmt.Fprintln(out)
}

// writeCSV stores content under dir when -csv was given.
func writeCSV(dir, name, content string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	path := dir + string(os.PathSeparator) + name
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments <fig1|table1|fig3|fig10|fig11|fig12|fig13|partition|churn|drain|multires|migration|chaos|all|version> [-quick] [-seed N] [-workers N] [-partitions N] [-trace NAME] [-scenario a,b] [-csv DIR] [-trace-out FILE]`)
}
