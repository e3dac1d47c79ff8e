package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/duration"
	"cwcs/internal/sched"
	"cwcs/internal/sim"
	"cwcs/internal/vjob"
)

// TestSwitchLineSurfacesFailures is the regression test for silently
// dropped action failures: a record with failures must say so, and a
// clean record must not cry wolf.
func TestSwitchLineSurfacesFailures(t *testing.T) {
	clean := switchLine(core.SwitchRecord{At: 30, Cost: 1024, Actions: 3, Pools: 2, Duration: 19})
	if strings.Contains(clean, "FAILURES") {
		t.Fatalf("clean switch reports failures: %q", clean)
	}
	bad := switchLine(core.SwitchRecord{At: 60, Cost: 2048, Actions: 4, Pools: 2, Duration: 25, Failures: 2})
	if !strings.Contains(bad, "FAILURES=2") {
		t.Fatalf("failures not surfaced: %q", bad)
	}
}

// TestDriveSimFinishesInFlightSwitchOnShutdown pins the graceful
// shutdown contract: a cancellation arriving while a context switch
// executes must not abandon it — driveSim keeps advancing the
// simulation until the managed execution has completed.
func TestDriveSimFinishesInFlightSwitchOnShutdown(t *testing.T) {
	cfg := vjob.NewConfiguration()
	for i := 0; i < 4; i++ {
		cfg.AddNode(vjob.NewNode(fmt.Sprintf("n%02d", i), 2, 4096))
	}
	c := sim.New(cfg, duration.Default())
	act := &drivers.Actuator{C: c}

	// Two running VMs on a drained node force an evacuation whose
	// migrations take tens of virtual seconds.
	job := vjob.NewVJob("ja", 0,
		vjob.NewVM("a1", "ja", 1, 1024), vjob.NewVM("a2", "ja", 1, 1024))
	for _, v := range job.VMs {
		cfg.AddVM(v)
		if err := cfg.SetRunning(v.Name, "n00"); err != nil {
			t.Fatal(err)
		}
		c.SetWorkload(v.Name, []sim.Phase{{CPU: 1, Seconds: 1e6}})
	}
	drains := &core.DrainSet{}
	drains.Drain("n00")
	loop := &core.Loop{
		Decision:    sched.Terminator{Inner: keepStates{}, Finished: c.VJobDone, Jobs: func() []*vjob.VJob { return nil }},
		Optimizer:   core.Optimizer{Workers: 1, Timeout: 2 * time.Second},
		EventDriven: true,
		Debounce:    1,
		Drains:      drains,
		Queue:       func() []*vjob.VJob { return []*vjob.VJob{job} },
	}

	ctx, cancel := context.WithCancel(context.Background())
	loop.Ctx = ctx
	// Cancel at t=3: the bootstrap solve ran at t=0 and its migrations
	// (1024 MiB each) are still executing.
	c.Schedule(3, func() {
		if !loop.Busy() {
			t.Fatal("no switch in flight at the cancellation instant")
		}
		cancel()
	})

	var mu sync.Mutex
	loop.Start(act)
	driveSim(ctx, c, loop, &mu, 10_000, false, 2, io.Discard)

	if loop.Busy() {
		t.Fatal("driveSim returned with the switch still executing")
	}
	if len(loop.Records) != 1 {
		t.Fatalf("%d switches recorded", len(loop.Records))
	}
	if got := cfg.RunningOn("n00"); len(got) != 0 {
		t.Fatalf("n00 still hosts %d VMs: the switch was abandoned", len(got))
	}
	if !cfg.Viable() {
		t.Fatalf("non-viable configuration after shutdown: %v", cfg.Violations())
	}
}

// keepStates is the do-nothing decision module: every VM keeps its
// state, so only rule maintenance (the drain) can demand actions.
type keepStates struct{}

func (keepStates) Decide(*vjob.Configuration, []*vjob.VJob) map[string]vjob.State {
	return map[string]vjob.State{}
}

func TestErrorSummaryListsEveryReportError(t *testing.T) {
	if s := errorSummary(nil); s != "" {
		t.Fatalf("summary of nothing: %q", s)
	}
	reports := []drivers.Report{
		{Start: 30, End: 49},
		{Start: 90, End: 120, Errs: []error{
			errors.New("migrate(vm1,n1,n2): VM not running on n1"),
			errors.New("resume(vm2,n3,n3): VM not sleeping"),
		}},
		{Start: 150, End: 160, Errs: []error{errors.New("stop(vm3,n4): VM not running on n4")}},
	}
	s := errorSummary(reports)
	if !strings.Contains(s, "action failures: 3") {
		t.Fatalf("missing total: %q", s)
	}
	for _, want := range []string{"migrate(vm1,n1,n2)", "resume(vm2,n3,n3)", "stop(vm3,n4)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary lost %q:\n%s", want, s)
		}
	}
}

// TestRunRejectsOutOfRangeFlags: a size below 1, or a negative width,
// budget or delay, is a usage error naming the flag, returned before
// the daemon prints anything. The small workload in front keeps a
// missed check from running the paper's cluster.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	small := []string{"-nodes", "2", "-vjobs", "1", "-vms", "1", "-timeout", "10ms"}
	for _, bad := range [][]string{
		{"-nodes", "0"},
		{"-cpu", "0"},
		{"-memory", "-5"},
		{"-vjobs", "0"},
		{"-vms", "0"},
		{"-workers", "-1"},
		{"-partitions", "-1"},
		{"-timeout", "-1s"},
		{"-interval", "-2"},
		{"-debounce", "-0.5"},
	} {
		var out strings.Builder
		err := run(context.Background(), append(append([]string(nil), small...), bad...), &out)
		if err == nil || !strings.HasPrefix(err.Error(), bad[0]+" must be") || out.Len() != 0 {
			t.Errorf("%s %s: error %v, output %q", bad[0], bad[1], err, out.String())
		}
	}
}

// TestServeUntilCanceled runs the daemon the way an operator does:
// -listen on a port the kernel picks, whose address run prints, a
// request of each kind through the mounted control plane, then a
// cancellation that must stop the daemon and close its port.
func TestServeUntilCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-workers", "1"}, pw)
		pw.Close()
	}()
	bound := make(chan string, 1)
	go func() {
		// Reads to the end, so run never blocks on its output.
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "control plane listening on "); ok {
				bound <- addr
			}
		}
	}()
	var addr string
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no listening address printed")
	}

	request := func(method, path, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, "http://"+addr+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	request("GET", "/healthz", "", http.StatusOK)
	request("POST", "/v1/vjobs", `{"name":"op","vms":[{"name":"op-0","cpu":1,"memory":512,"phases":[{"cpu":1,"seconds":50}]}]}`, http.StatusAccepted)

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return within 5 s of the cancellation")
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after run returned", addr)
	}
}
