package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cwcs/internal/sched"
	"cwcs/internal/testbed"
)

// TestMountPprofGating checks the -pprof wiring: with the flag on the
// profiling endpoints serve, with it off they fall through to the API
// mux and 404 — while the control-plane routes work either way.
func TestMountPprofGating(t *testing.T) {
	var mu sync.Mutex
	tb := testbed.New(testbed.Options{Nodes: 2, NodeCPU: 2, NodeMemory: 4096, VJobs: 1, VMsPerVJob: 1, Decision: sched.Consolidation{}})
	apiHandler := tb.ControlPlane(&mu).Handler()

	enabled := httptest.NewServer(mount(apiHandler, true))
	defer enabled.Close()
	disabled := httptest.NewServer(mount(apiHandler, false))
	defer disabled.Close()

	status := func(base, path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(enabled.URL, "/debug/pprof/"); got != http.StatusOK {
		t.Errorf("enabled /debug/pprof/ = %d, want 200", got)
	}
	if got := status(enabled.URL, "/debug/pprof/cmdline"); got != http.StatusOK {
		t.Errorf("enabled /debug/pprof/cmdline = %d, want 200", got)
	}
	if got := status(disabled.URL, "/debug/pprof/"); got != http.StatusNotFound {
		t.Errorf("disabled /debug/pprof/ = %d, want 404", got)
	}
	// The control plane is reachable through the mount in both modes.
	for _, base := range []string{enabled.URL, disabled.URL} {
		for _, path := range []string{"/healthz", "/v1/nodes", "/metrics"} {
			if got := status(base, path); got != http.StatusOK {
				t.Errorf("%s%s = %d, want 200", base, path, got)
			}
		}
	}
}
