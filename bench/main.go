// Command bench is the repository's benchmark: five workloads, each a
// fixed amount of work made from --seed, measured from outside the
// program through its packages' public functions. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names one metric and its unit. The tables below are the
// harness's side of BENCHMARK.json; benchmark_test.go keeps the two in
// step.
type metricDef struct{ name, unit string }

// endToEnd is reported by every workload on an untraced run.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"wall_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"ops_ok_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer is reported on a traced run. A workload that never enters a
// layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"cp.nodes_per_s", "1/s"}, {"cp.fails_per_node", "ratio"}, {"cp.propagations_per_node", "ratio"}, {"cp.snapshot_us", "us"},
	{"core.solve_ms", "ms"}, {"core.nodes_searched", "count"}, {"core.solutions_per_solve", "count"}, {"core.cost_vs_ffd", "ratio"},
	{"core.ffd_seed_ms", "ms"}, {"core.split_ms", "ms"}, {"core.slice_solve_p50_ms", "ms"}, {"core.slice_solve_max_ms", "ms"},
	{"core.slices_optimal_ratio", "ratio"}, {"core.parallel_speedup", "ratio"},
	{"plan.graph_ms", "ms"}, {"plan.build_ms", "ms"}, {"plan.validate_ms", "ms"}, {"plan.merge_ms", "ms"}, {"plan.repair_ms", "ms"},
	{"plan.actions_per_s", "1/s"}, {"plan.pools_per_plan", "count"},
	{"vjob.clone_ms", "ms"}, {"vjob.violations_ms", "ms"}, {"vjob.running_on_us", "us"},
	{"packing.ffd_ms", "ms"}, {"sched.decide_ms", "ms"}, {"workload.generate_ms", "ms"},
	{"loop.busy_s", "s"}, {"loop.busy_share", "ratio"}, {"loop.notify_us_p50", "us"}, {"loop.repair_ms_p50", "ms"},
	{"loop.wake_p50_ms", "ms"}, {"loop.wake_p90_ms", "ms"}, {"loop.wakes", "count"}, {"loop.solver_calls", "count"}, {"loop.sub_solves", "count"},
	{"loop.repairs", "count"}, {"loop.failed_repairs", "count"}, {"loop.partition_reuse_ratio", "ratio"}, {"loop.coalesced_ratio", "ratio"},
	{"loop.violation_vs", "s"}, {"loop.remediation_p95_vs", "s"},
	{"sim.busy_s", "s"}, {"sim.advance_ms_w0", "ms"}, {"sim.advance_ms_w3", "ms"}, {"monitor.watch_overhead_ratio", "ratio"},
	{"drivers.observe_ms_p50", "ms"}, {"drivers.actions_failed_ratio", "ratio"},
	{"api.get_nodes_ms_p50", "ms"}, {"api.get_config_ms_p50", "ms"}, {"api.get_plan_ms_p50", "ms"}, {"api.get_metrics_ms_p50", "ms"},
	{"api.post_vjob_ms_p50", "ms"}, {"api.post_event_ms_p50", "ms"}, {"api.request_p90_ms", "ms"}, {"api.get_nodes_bytes", "count"},
	{"api.exec_hold_p50_ms", "ms"}, {"api.exec_hold_max_ms", "ms"}, {"api.submit_to_placed_p50_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// exactLayer lists the per-layer metrics that are counts of what the
// program decided, not timings: two runs of one commit with one seed
// must agree on them to the last digit.
var exactLayer = []string{
	"core.nodes_searched", "core.solutions_per_solve", "core.cost_vs_ffd", "core.slices_optimal_ratio",
	"plan.pools_per_plan",
	"loop.wakes", "loop.solver_calls", "loop.sub_solves", "loop.repairs", "loop.failed_repairs",
	"loop.partition_reuse_ratio", "loop.coalesced_ratio", "loop.violation_vs", "loop.remediation_p95_vs",
	"drivers.actions_failed_ratio", "api.get_nodes_bytes",
}

var workloadNames = []string{"solve_mono", "solve_sliced", "plan_large", "churn_ev", "api_mixed"}

// minOps is the fewest timed operations a run may pool its medians
// over, and minRounds the fewest rounds it measures however short
// --seconds is. Every workload has at least minOps operations in
// minRounds rounds, and alloc_mb_per_op is taken over exactly these
// rounds so that it repeats for a seed on any machine.
const (
	minOps    = 16
	minRounds = 4
)

// traceDir is where a traced run writes its spans, from the root of the
// checkout; specFile is the benchmark's definition there.
const (
	traceDir = "bench/out"
	specFile = "BENCHMARK.json"
)

// round is what one pass over a workload's fixed work measured.
type round struct {
	ops    []time.Duration    // one per operation
	wall   time.Duration      // time spent inside the program
	alloc  uint64             // bytes the program allocated
	failed int                // operations whose output did not verify
	why    []string           // the first few reasons
	counts map[string]float64 // exact results: the same whenever the round runs
}

// add books one timed operation.
func (r *round) add(took time.Duration, alloc uint64) {
	r.ops = append(r.ops, took)
	r.wall += took
	r.alloc += alloc
}

func (r *round) fail(err error) {
	r.failed++
	if len(r.why) < 5 {
		r.why = append(r.why, err.Error())
	}
}

// scenario is one of the five benchmark workloads (the name workload
// belongs to the package that generates clusters).
type scenario interface {
	// setup takes the run's seed, then generates the reference inputs,
	// wires the program and warms it up with one round's kind of work on
	// them. The reference inputs do not depend on the seed, so set-up is
	// the same work in every run. A run calls it several times and
	// reports the median.
	setup(seed int64) error
	// round generates the inputs of the run's index-th round from the
	// seed (untimed), does that fixed work once, checks the outputs and
	// reports what it measured. Every round is the same size and no two
	// share an input. tr is nil except on the traced round.
	round(index int, tr *tracer) (round, error)
	// layers fills the per-layer metrics this workload can measure,
	// from the traced round and from probes that record into tr.
	layers(tr *tracer, traced round, m map[string]float64) error
}

func newScenario(name string, smoke bool) (scenario, error) {
	switch name {
	case "solve_mono", "solve_sliced":
		return newSolveWorkload(name, smoke), nil
	case "plan_large":
		return newPlanWorkload(smoke), nil
	case "churn_ev":
		return newChurnWorkload(smoke), nil
	case "api_mixed":
		return newAPIWorkload(smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// measure runs fn and returns how long it took and how many bytes it
// allocated (TotalAlloc only grows, so garbage collection does not
// disturb the count).
func measure(fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return wall, after.TotalAlloc - before.TotalAlloc
}

// warmFloor is how long a set-up's warm-up lasts at least.
func warmFloor(smoke bool) time.Duration {
	if smoke {
		return 0
	}
	return time.Second
}

// warmUp runs the n reference operations of a set-up in order, and
// keeps cycling through them until floor has passed. Today one pass
// takes longer than the floor on every workload, so the warm-up is a
// fixed amount of work and anything a change moves into first use
// shows in setup_s. Once the program is so much faster that a pass
// falls short, the floor keeps set-up from becoming a few noisy
// milliseconds.
func warmUp(floor time.Duration, n int, op func(i int) error) error {
	t0 := time.Now()
	for i := 0; i < n || time.Since(t0) < floor; i++ {
		if err := op(i % n); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	traceDir string // where a traced run writes its spans; nowhere when empty
}

// run executes one benchmark run and writes its report to out.
func run(cfg config, out io.Writer) (result, error) {
	w, err := newScenario(cfg.workload, cfg.smoke)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "run: workload=%s seed=%d seconds=%g trace=%v smoke=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke)
	fmt.Fprintf(out, "host: %s\n", hostInfo())
	if cfg.trace {
		return runTraced(cfg, w, out)
	}

	// Set-up, several times over: the first pays for a cold process,
	// and the median of three does not.
	setups := 3
	if cfg.smoke {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := w.setup(cfg.seed); err != nil {
			return result{}, err
		}
		runtime.GC()
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	fmt.Fprintf(out, "setup: %.3f s each: %.3f\n", median(setupS), setupS)

	var rounds []round
	for t0 := time.Now(); len(rounds) < minRounds || time.Since(t0).Seconds() < cfg.seconds; {
		r, err := w.round(len(rounds), nil)
		if err != nil {
			return result{}, err
		}
		rounds = append(rounds, r)
		opMS := millis(r.ops)
		fmt.Fprintf(out, "round %d: %d ops, wall %.3f s, op p50 %.3f ms (quartiles %.0f%% of it apart), %.3f MB/op\n",
			len(rounds), len(r.ops), r.wall.Seconds(), median(opMS), 100*iqrShare(opMS), float64(r.alloc)/1e6/float64(len(r.ops)))
	}

	res := result{Metrics: map[string]metricValue{}}
	var opMS, wallS []float64
	var allocBytes, allocOps float64
	for i, r := range rounds {
		res.Attempted += len(r.ops)
		res.Failed += r.failed
		for _, why := range r.why {
			fmt.Fprintf(out, "FAILED round %d: %s\n", i+1, why)
		}
		opMS = append(opMS, millis(r.ops)...)
		wallS = append(wallS, r.wall.Seconds())
		if i < minRounds {
			allocBytes += float64(r.alloc)
			allocOps += float64(len(r.ops))
		}
	}
	res.Correct = res.Failed == 0
	values := map[string]float64{
		"op_p50_ms":       median(opMS),
		"wall_s":          median(wallS),
		"alloc_mb_per_op": allocBytes / 1e6 / allocOps,
		"ops_ok_ratio":    float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"setup_s":         median(setupS),
	}
	fmt.Fprintf(out, "rounds: %d, %d ops; op times' quartiles %.1f%% of the median apart, round walls' %.1f%%\n", len(rounds), len(opMS), 100*iqrShare(opMS), 100*iqrShare(wallS))
	for _, k := range sortedKeys(rounds[0].counts) {
		fmt.Fprintf(out, "count %s %v (round 1)\n", k, rounds[0].counts[k])
	}
	report(out, endToEnd, values, res.Metrics)

	// A run that breaks one of these is not a measurement.
	switch {
	case !res.Correct:
		return res, errors.New("outputs did not verify")
	case len(opMS) < minOps && !cfg.smoke:
		return res, fmt.Errorf("the run timed %d operations, fewer than %d", len(opMS), minOps)
	case values["setup_s"] < 1 && !cfg.smoke:
		return res, fmt.Errorf("setup_s is %.3f, under 1 s", values["setup_s"])
	}
	return res, nil
}

// runTraced measures the per-layer metrics: the first round plain, then
// the same round with the harness's spans on, then the workload's
// probes.
func runTraced(cfg config, w scenario, out io.Writer) (result, error) {
	if err := w.setup(cfg.seed); err != nil {
		return result{}, err
	}
	runtime.GC()
	plain, err := w.round(0, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := w.round(0, tr)
	if err != nil {
		return result{}, err
	}
	values := map[string]float64{"bench.trace_overhead_ratio": traced.wall.Seconds() / plain.wall.Seconds()}
	if err := w.layers(tr, traced, values); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "rounds: plain wall %.3f s, traced wall %.3f s, %d spans\n", plain.wall.Seconds(), traced.wall.Seconds(), len(tr.spans))
	for layer, self := range tr.selfByLayer() {
		fmt.Fprintf(out, "self time %s %.3f s\n", layer, self.Seconds())
	}
	if cfg.traceDir != "" {
		path := fmt.Sprintf("%s/trace-%s.jsonl", cfg.traceDir, cfg.workload)
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}
	res := result{
		Correct:   plain.failed+traced.failed == 0 && sameCounts(plain.counts, traced.counts) == "",
		Attempted: len(plain.ops) + len(traced.ops),
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, why := range append(plain.why, traced.why...) {
		fmt.Fprintf(out, "FAILED: %s\n", why)
	}
	report(out, perLayer, values, res.Metrics)
	if !res.Correct {
		return res, errors.New("outputs did not verify, or the traced round did not repeat the plain one")
	}
	return res, nil
}

// report prints each metric by name with its unit and fills the result.
func report(out io.Writer, defs []metricDef, values map[string]float64, into map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(out, "metric %s %v %s\n", d.name, values[d.name], d.unit)
		into[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
}

// sameCounts compares two rounds' exact results.
func sameCounts(a, b map[string]float64) string {
	for _, k := range sortedKeys(a) {
		if a[k] != b[k] {
			return fmt.Sprintf("%s is %v, was %v", k, b[k], a[k])
		}
	}
	return ""
}

// hostInfo describes the machine and the build for the run's report.
func hostInfo() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func main() {
	var cfg config
	var trace int
	var agree bool
	var record string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 13, "keep running whole rounds until this long has been measured")
	flag.IntVar(&trace, "trace", 0, "1: measure the per-layer metrics with the harness's spans on")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for the tests")
	flag.StringVar(&record, "record", "", "append the run's metrics to this file, one JSON object per line")
	flag.BoolVar(&agree, "agree", false, "compare two files written by -record: bench -agree A B")
	flag.Parse()

	if agree {
		if flag.NArg() != 2 {
			fatal(errors.New("-agree takes two files written by -record"))
		}
		if err := agreeFiles(specFile, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	// At most four processors, so that a run means the same on a laptop
	// and on a large server.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg.trace = trace != 0
	cfg.traceDir = traceDir
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if record != "" {
		if err := appendRecord(record, cfg, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
