package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// record is one run in a file written by -record.
type record struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    bool                   `json:"trace"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func appendRecord(path string, cfg config, res result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Metrics: res.Metrics})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// benchmarkSpec is the part of BENCHMARK.json -agree reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// allocPairBound is how far alloc_mb_per_op may differ between two runs
// of one commit with one seed. The count depends on the inputs alone,
// so it is held per pair of runs and far tighter than the bound in
// BENCHMARK.json, which has to cover ten different seeds.
const allocPairBound = 0.03

// agreeFiles compares two sets of runs of the same commit. For every
// workload, the medians of an end-to-end metric over the two sets'
// runs must lie within the metric's bound of each other. Runs the two
// sets share (same workload, seed and trace flag) must agree one to
// one: untraced ones on alloc_mb_per_op within allocPairBound and on
// ops_ok_ratio exactly, traced ones on every exact per-layer metric.
// A workload, metric or traced pair missing from a set disagrees. It
// prints one line per comparison and returns an error naming how many
// disagree.
func agreeFiles(specPath, pathA, pathB string, out io.Writer) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}

	bad := 0
	disagree := func(format string, args ...any) {
		bad++
		fmt.Fprintf(out, "DISAGREE "+format+"\n", args...)
	}
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			va, vb := valuesOf(a, wl, m.Name), valuesOf(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				disagree("%-12s %-16s A has %d runs, B has %d", wl, m.Name, len(va), len(vb))
				continue
			}
			ma, mb := median(va), median(vb)
			line := fmt.Sprintf("%-12s %-16s A %.6g (n=%d, quartiles %.1f%% apart)  B %.6g (n=%d, %.1f%%)  gap %.1f%% of bound %.0f%%",
				wl, m.Name, ma, len(va), 100*iqrShare(va), mb, len(vb), 100*iqrShare(vb), 100*gap(ma, mb), 100*m.Bound)
			if gap(ma, mb) > m.Bound {
				disagree("%s", line)
			} else {
				fmt.Fprintf(out, "agree    %s\n", line)
			}
		}
	}

	tracedPairs := map[string]int{}
	for _, ra := range a {
		for _, rb := range b {
			if ra.Trace != rb.Trace || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			where := fmt.Sprintf("%-12s seed %d", ra.Workload, ra.Seed)
			if !ra.Trace {
				va, vb := ra.Metrics["alloc_mb_per_op"].Value, rb.Metrics["alloc_mb_per_op"].Value
				if va <= 0 || vb <= 0 || gap(va, vb) > allocPairBound {
					disagree("%s alloc_mb_per_op A %v  B %v (within %.0f%% for one seed)", where, va, vb, 100*allocPairBound)
				}
				if va, vb := ra.Metrics["ops_ok_ratio"].Value, rb.Metrics["ops_ok_ratio"].Value; va != vb {
					disagree("%s ops_ok_ratio A %v  B %v (exact)", where, va, vb)
				}
				continue
			}
			tracedPairs[ra.Workload]++
			for _, name := range exactLayer {
				ma, okA := ra.Metrics[name]
				mb, okB := rb.Metrics[name]
				if !okA || !okB || ma.Value != mb.Value {
					disagree("%s %-28s A %v  B %v (exact)", where, name, ma.Value, mb.Value)
				}
			}
		}
	}
	for _, wl := range workloadNames {
		if tracedPairs[wl] == 0 {
			disagree("%-12s no traced run with one seed in both sets", wl)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons disagree", bad)
	}
	fmt.Fprintln(out, "the two sets agree")
	return nil
}

// gap is the distance between two positive values as a share of the
// smaller.
func gap(a, b float64) float64 {
	if a > b {
		a, b = b, a
	}
	return (b - a) / a
}

// valuesOf collects one metric of one workload over a set's runs.
func valuesOf(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}
