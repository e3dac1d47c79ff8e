// Command entropyd runs the full Entropy control loop against a
// simulated cluster: it generates a cluster and a vjob workload,
// starts the observe/decide/plan/execute loop with the dynamic
// consolidation decision module, and streams every cluster-wide
// context switch plus periodic utilization lines until the workload
// completes.
//
// With -listen the daemon also mounts the HTTP control plane
// (internal/api) and keeps serving until SIGTERM: operators can then
// inspect the configuration and the executing plan, scrape /metrics,
// inject monitoring events, drain or undrain nodes, and submit or
// withdraw vjobs at runtime. -listen implies -event-driven — the
// drain/evacuate workflow and runtime submissions are driven by
// events, not by the fixed period.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/monitor"
	"cwcs/internal/obs"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/testbed"
)

func main() {
	// SIGINT/SIGTERM cancel the in-flight optimization and stop the
	// loop at the next iteration; the sim driver then finishes the
	// in-flight context switch before exiting instead of abandoning it
	// mid-migration.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	// The flag set has already reported a bad flag on stderr.
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
}

// run is the daemon: it parses args, writes what main would print to
// out and returns when the workload completes, the horizon is reached
// or ctx is done. The only errors are a usage one and a -listen
// address that cannot be bound, both already reported on stderr.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("entropyd", flag.ContinueOnError)
	nodes := fs.Int("nodes", 11, "working nodes")
	cpu := fs.Int("cpu", 2, "processing units per node")
	memory := fs.Int("memory", 3584, "MiB per node")
	njobs := fs.Int("vjobs", 8, "number of vjobs")
	nvms := fs.Int("vms", 9, "VMs per vjob")
	interval := fs.Float64("interval", 30, "loop interval (virtual seconds)")
	eventDriven := fs.Bool("event-driven", false, "react to cluster events instead of the fixed period: re-solve only the dirty slices, repair plans on action failure")
	debounce := fs.Float64("debounce", 5, "event settle delay before an incremental iteration (virtual seconds)")
	timeout := fs.Duration("timeout", 2*time.Second, "optimizer budget per iteration")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel portfolio workers per optimization (1 = sequential)")
	partitions := fs.Int("partitions", 0, "cluster partitions solved concurrently (0 = auto, 1 = monolithic)")
	seed := fs.Int64("seed", 42, "workload seed")
	horizon := fs.Float64("horizon", 100_000, "simulation cut-off (virtual seconds; ignored while -listen serves)")
	listen := fs.String("listen", "", "mount the HTTP control plane on this address (e.g. :8080) and serve until SIGTERM; implies -event-driven")
	pprofOn := fs.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the control plane (requires -listen)")
	version := fs.Bool("version", false, "print build metadata and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Out-of-range values are usage errors. Let through, a negative
	// capacity panics in the node constructor, an empty cluster or
	// workload reports itself complete at once, and the rest fall
	// silently back to a default or to a budget that has expired.
	var err error
	for _, f := range []struct {
		name string
		bad  bool
		want string
	}{
		{"nodes", *nodes < 1, "at least 1"},
		{"cpu", *cpu < 1, "at least 1"},
		{"memory", *memory < 1, "at least 1"},
		{"vjobs", *njobs < 1, "at least 1"},
		{"vms", *nvms < 1, "at least 1"},
		{"workers", *workers < 0, "0 or more"},
		{"partitions", *partitions < 0, "0 or more"},
		{"timeout", *timeout < 0, "0 or more"},
		{"interval", *interval < 0, "0 or more"},
		{"debounce", *debounce < 0, "0 or more"},
	} {
		if f.bad && err == nil {
			err = fmt.Errorf("-%s must be %s, not %s", f.name, f.want, fs.Lookup(f.name).Value)
		}
	}
	if err == nil && *pprofOn && *listen == "" {
		err = errors.New("-pprof requires -listen")
	}
	if err != nil {
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return err
	}

	if *version {
		info := obs.BuildInfo()
		fmt.Fprintf(out, "entropyd %s %s\n", info.Version, info.GoVersion)
		return nil
	}

	serving := *listen != ""
	if serving {
		*eventDriven = true
	}

	tb := testbed.New(testbed.Options{
		Nodes: *nodes, NodeCPU: *cpu, NodeMemory: *memory,
		PaperNames: true,
		VJobs:      *njobs, VMsPerVJob: *nvms,
		Seed:         *seed,
		Decision:     sched.Consolidation{},
		Optimizer:    core.Optimizer{Timeout: *timeout, Workers: *workers, Partitions: *partitions},
		Interval:     *interval,
		EventDriven:  *eventDriven,
		Debounce:     *debounce,
		StopWhenDone: true,
	})
	c, loop := tb.Cluster, tb.Loop
	for _, spec := range tb.Specs {
		fmt.Fprintf(out, "submitted %s: %s class %s, %d VMs, %.0f s of work\n",
			spec.Job.Name, spec.Bench, spec.Size, len(spec.Job.VMs), spec.TotalWork())
	}
	loop.Ctx = ctx
	loop.OnSwitch = func(r core.SwitchRecord) {
		fmt.Fprintln(out, switchLine(r))
	}

	var tick func()
	tick = func() {
		s := monitor.Observe(c.Now(), c.Config())
		fmt.Fprintf(out, "[t=%7.0f] cpu %d/%d (%.0f%%), mem %.1f GiB, VMs run/sleep/wait %d/%d/%d\n",
			s.T, s.UsedCPU, s.CapCPU, s.CPUPercent(), s.MemGiB(), s.Running, s.Sleeping, s.Waiting)
		done := true
		for _, j := range tb.Jobs() {
			if !c.VJobDone(j) {
				done = false
				break
			}
		}
		if !done {
			c.Schedule(c.Now()+60, tick)
		}
	}
	tick()

	// simMu serializes the sim driver with the control-plane handlers;
	// without -listen nothing else contends for it.
	var simMu sync.Mutex
	if serving {
		// Threshold monitoring: sustained per-node overload and node
		// up/down become events on the same ingestion path as POST
		// /v1/events.
		watcher := &monitor.ThresholdWatcher{Emit: tb.Feed}
		watcher.Attach(c)

		// Bound before the address is printed, so -listen :0 reports
		// the port it got.
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "control plane: %v\n", err)
			return err
		}
		httpSrv := &http.Server{
			Handler: mount(tb.ControlPlane(&simMu).Handler(), *pprofOn),
			// A client that never finishes its headers holds a
			// connection, not the loop.
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "control plane: %v\n", err)
			}
		}()
		defer func() { _ = httpSrv.Shutdown(context.Background()) }()
		fmt.Fprintf(out, "control plane listening on %s\n", ln.Addr())
	}

	// The listener may already be serving: starting the loop schedules
	// on the sim event heap, so it needs the same serialization the
	// handlers use.
	simMu.Lock()
	loop.Start(tb.Actuator)
	simMu.Unlock()
	driveSim(ctx, c, loop, &simMu, *horizon, serving, 30, out)

	fmt.Fprintf(out, "\nworkload complete at t=%.0f s (%.1f min); %d context switches, mean duration %.0f s\n",
		c.Now(), c.Now()/60, len(loop.Records), meanDuration(loop.Records))
	if *eventDriven {
		s := loop.Stats
		fmt.Fprintf(out, "event loop: %d events (%d coalesced), %d slice solves, %d full solves, %d repairs\n",
			s.Events, s.Coalesced, s.SliceSolves, s.FullSolves, s.Repairs)
	}
	local, remote := c.TransferCounts()
	fmt.Fprintf(out, "actions: %v; transfers: %d local, %d remote\n", c.ActionCounts(), local, remote)
	if s := errorSummary(tb.Actuator.Reports); s != "" {
		fmt.Fprint(out, s)
	}
	return nil
}

// mount layers the optional pprof endpoints over the control-plane
// handler. When -pprof is off the pprof routes are simply never
// registered, so /debug/pprof/ falls through to the API mux and gets
// its ordinary 404 — nothing to strip, nothing to authenticate.
func mount(apiHandler http.Handler, pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", apiHandler)
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// driveSim advances the simulator in chunks under mu, releasing the
// mutex between chunks so control-plane handlers interleave. Without
// serving it returns when the horizon is reached or the simulation
// goes quiescent (workload drained); while serving it runs until ctx
// is canceled, idling on real time when the virtual cluster has
// nothing to do. After cancellation it keeps advancing until the
// in-flight context switch (if any) has finished — a SIGTERM never
// abandons a half-executed plan mid-migration.
func driveSim(ctx context.Context, c *sim.Cluster, loop *core.Loop, mu *sync.Mutex, horizon float64, serving bool, chunk float64, out io.Writer) {
	announced := false
	for {
		mu.Lock()
		if ctx.Err() != nil {
			if !loop.Busy() {
				mu.Unlock()
				return
			}
			if !announced {
				announced = true
				fmt.Fprintln(out, "shutdown: waiting for the in-flight context switch to finish")
			}
			before := c.Now()
			c.Run(before + chunk)
			stuck := c.Now() == before && loop.Busy()
			mu.Unlock()
			if stuck {
				fmt.Fprintln(os.Stderr, "shutdown: execution cannot progress; abandoning")
				return
			}
			continue
		}
		before := c.Now()
		target := before + chunk
		if !serving && target > horizon {
			target = horizon
		}
		if before >= target {
			mu.Unlock()
			return
		}
		c.Run(target)
		reached := c.Now()
		mu.Unlock()
		if reached == before && !serving { // quiescent: workload drained
			return
		}
		if serving {
			// Pace the daemon: recurring monitoring ticks keep the sim
			// non-quiescent forever, and an unpaced loop would burn a
			// core racing virtual time. One chunk per millisecond still
			// advances ~30k virtual seconds per real second.
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
		}
	}
}

// switchLine renders one context-switch record, surfacing action
// failures instead of silently dropping them.
func switchLine(r core.SwitchRecord) string {
	line := fmt.Sprintf("[t=%7.0f] context switch: cost=%d actions=%d pools=%d duration=%.0fs",
		r.At, r.Cost, r.Actions, r.Pools, r.Duration)
	if r.Failures > 0 {
		line += fmt.Sprintf(" FAILURES=%d", r.Failures)
	}
	return line
}

// errorSummary aggregates the per-action failures of every executed
// switch; it returns "" when everything succeeded.
func errorSummary(reports []drivers.Report) string {
	var b strings.Builder
	total := 0
	for _, rep := range reports {
		for _, err := range rep.Errs {
			total++
			fmt.Fprintf(&b, "  [t=%7.0f..%.0f] %v\n", rep.Start, rep.End, err)
		}
	}
	if total == 0 {
		return ""
	}
	return fmt.Sprintf("action failures: %d\n%s", total, b.String())
}

func meanDuration(recs []core.SwitchRecord) float64 {
	if len(recs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range recs {
		sum += r.Duration
	}
	return sum / float64(len(recs))
}
