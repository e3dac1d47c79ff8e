package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// set is one fixture of TestAgree: for every workload three untraced
// runs and one traced one.
type set struct {
	opMS  []float64 // op_p50_ms of seeds 1, 2, 3
	alloc float64   // alloc_mb_per_op of every run
	nodes float64   // core.nodes_searched of the traced run
	skip  string    // workload left out
}

func (s set) write(t *testing.T, path string) string {
	t.Helper()
	for _, wl := range workloadNames {
		if wl == s.skip {
			continue
		}
		for i, v := range s.opMS {
			res := result{Metrics: map[string]metricValue{"op_p50_ms": {v, "ms"}, "alloc_mb_per_op": {s.alloc, "MB"}, "ops_ok_ratio": {1, "ratio"}}}
			if err := appendRecord(path, config{workload: wl, seed: int64(i + 1)}, res); err != nil {
				t.Fatal(err)
			}
		}
		traced := result{Metrics: map[string]metricValue{"core.solve_ms": {s.opMS[0], "ms"}}}
		for _, name := range exactLayer {
			traced.Metrics[name] = metricValue{Value: 7, Unit: "count"}
		}
		traced.Metrics["core.nodes_searched"] = metricValue{Value: s.nodes, Unit: "count"}
		if err := appendRecord(path, config{workload: wl, seed: 1, trace: true}, traced); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"op_p50_ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := set{opMS: []float64{100, 104, 96}, alloc: 50, nodes: 600}
	a := base.write(t, filepath.Join(dir, "a.jsonl"))

	near := base
	near.opMS = []float64{108, 92, 109}
	var out bytes.Buffer
	if err := agreeFiles(spec, a, near.write(t, filepath.Join(dir, "near.jsonl")), &out); err != nil {
		t.Errorf("medians 100 and 108 under a bound of 10%%: %v\n%s", err, out.String())
	}

	slow, nodes, alloc, missing := base, base, base, base
	slow.opMS = []float64{115, 111, 120}
	nodes.nodes = 601
	alloc.alloc = 52
	missing.skip = "churn_ev"
	for _, c := range []struct {
		name string
		set  set
		want string // in the line that disagrees
	}{
		{"slow", slow, "solve_mono   op_p50_ms"},
		{"nodes", nodes, "core.nodes_searched"},
		{"alloc", alloc, "alloc_mb_per_op A 50  B 52"},
		{"missing", missing, "churn_ev     op_p50_ms        A has 3 runs, B has 0"},
	} {
		b := c.set.write(t, filepath.Join(dir, c.name+".jsonl"))
		for _, pair := range [][2]string{{a, b}, {b, a}} {
			out.Reset()
			err := agreeFiles(spec, pair[0], pair[1], &out)
			want := c.want
			if pair[0] == b {
				want = strings.NewReplacer("A 50  B 52", "A 52  B 50", "A has 3 runs, B has 0", "A has 0 runs, B has 3").Replace(want)
			}
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				found = found || (strings.HasPrefix(line, "DISAGREE") && strings.Contains(line, want))
			}
			if err == nil || !found {
				t.Errorf("%s: want a DISAGREE line with %q, got %v:\n%s", c.name, want, err, out.String())
			}
		}
	}
}
