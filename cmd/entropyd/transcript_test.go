package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the transcripts instead of comparing (the
// internal/experiments golden convention):
//
//	go test ./cmd/entropyd -run Transcript -update
var update = flag.Bool("update", false, "rewrite the stdout transcripts")

// TestTranscripts pins the daemon's whole stdout — every submitted
// vjob, every context switch, every utilization line, the summary —
// under the default flags and under -event-driven. Captured at
// 61520c9, where main wired the cluster, the loop and its watchers by
// hand; it passing unchanged says internal/testbed wires the same run.
// One worker and a budget no solve of this size comes near, so every
// search ends on a proof and the output repeats exactly.
func TestTranscripts(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"headless.golden", nil},
		{"event_driven.golden", []string{"-event-driven"}},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), append([]string{"-workers", "1", "-timeout", "1m"}, tc.args...), &out); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing transcript (run with -update at a commit known good): %v", err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", tc.golden, out.Bytes(), want)
		}
	}
}

// TestRunVersionAndBadFlag covers the two ways run returns without a
// cluster.
func TestRunVersionAndBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out); err != nil || !bytes.HasPrefix(out.Bytes(), []byte("entropyd ")) {
		t.Fatalf("-version: %q, %v", out.String(), err)
	}
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// -pprof mounts on the control plane: without -listen there is
	// nothing to mount it on, and the daemon must not run at all.
	out.Reset()
	if err := run(context.Background(), []string{"-pprof", "-nodes", "2"}, &out); err == nil || out.Len() != 0 {
		t.Fatalf("-pprof without -listen: %v, output %q", err, out.String())
	}
}
