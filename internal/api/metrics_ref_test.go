package api

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"cwcs/internal/obs"
)

// The fmt-based /metrics renderer that appendExposition replaced, kept
// as the reference: every sample rendered its label set to a string of
// its own, each line went through fmt.Fprintf into a strings.Builder,
// and the histograms took a second pass of their own.

var refLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func refLabelPair(name, value string) string {
	return name + `="` + refLabelEscaper.Replace(value) + `"`
}

func refLabels(pairs ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(refLabelPair(pairs[i], pairs[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// refSampleLabels is the label string a sample carried pre-rendered:
// empty for an unlabeled sample.
func refSampleLabels(ls [2]label) string {
	var pairs []string
	for _, l := range ls {
		if l.name == "" {
			break
		}
		pairs = append(pairs, l.name, l.value)
	}
	if pairs == nil {
		return ""
	}
	return refLabels(pairs...)
}

func refExposition(fams []family, hists []obs.HistogramSnapshot) string {
	var b strings.Builder
	for _, f := range fams {
		if len(f.samples) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, smp := range f.samples {
			fmt.Fprintf(&b, "%s%s %g\n", f.name, refSampleLabels(smp.labels), smp.value)
		}
	}
	refWriteHistograms(&b, hists)
	return b.String()
}

func refWriteHistograms(b *strings.Builder, hists []obs.HistogramSnapshot) {
	last := ""
	for _, snap := range hists {
		if snap.Name != last {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", snap.Name, snap.Help, snap.Name)
			last = snap.Name
		}
		label, series := "", ""
		if snap.Label != "" {
			pair := refLabelPair(snap.Label, snap.LabelValue)
			label, series = pair+",", "{"+pair+"}"
		}
		cum := uint64(0)
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n",
				snap.Name, label, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		cum += snap.Counts[len(snap.Bounds)]
		fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", snap.Name, label, cum)
		fmt.Fprintf(b, "%s_sum%s %g\n", snap.Name, series, snap.Sum)
		fmt.Fprintf(b, "%s_count%s %d\n", snap.Name, series, snap.Count)
	}
}

// exposition builds a registry and histogram set around one label
// value and one sample value: the value in each label position, a
// family without samples, an unlabeled family, a labeled histogram
// sharing its name with an unlabeled one, and the value as a bucket
// bound and a sum.
func exposition(value string, v float64) ([]family, []obs.HistogramSnapshot) {
	fams := []family{
		{name: "t_plain", help: "Plain.", typ: "counter", samples: []sample{{value: v}}},
		{name: "t_empty", help: "No samples.", typ: "counter"},
		{name: "t_pairs", help: "Two labels.", typ: "gauge", samples: []sample{
			{labels: [2]label{{"node", value}, {"kind", "cpu"}}, value: v},
			{labels: [2]label{{"node", "n1"}, {"kind", value}}, value: -v},
			{value: 1},
		}},
		{name: "t_one", help: "One label: " + value, typ: "counter", samples: []sample{
			{labels: [2]label{{"rule", value}}, value: 0},
		}},
	}
	bounds := []float64{math.Inf(-1), v, 0.5, 1e21}
	counts := []uint64{0, 1, 2, math.Float64bits(v) >> 40, 3}
	hists := []obs.HistogramSnapshot{
		{Name: "t_seconds", Help: "Unlabeled.", Bounds: bounds, Counts: counts, Sum: v, Count: 6},
		{Name: "t_vseconds", Help: "By kind.", Label: "kind", LabelValue: value, Bounds: bounds, Counts: counts, Sum: -v, Count: 7},
		{Name: "t_vseconds", Help: "By kind.", Label: "kind", LabelValue: "other", Bounds: nil, Counts: []uint64{9}, Sum: 0, Count: 9},
	}
	return fams, hists
}

// TestExpositionMatchesReference: the one-buffer renderer writes
// byte for byte what the fmt renderer wrote, over awkward label
// values and the float values %g spells specially.
func TestExpositionMatchesReference(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e21, 1e-7, 123456789, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324}
	for _, name := range append(awkwardNames, "", "node007", `\n`, "\xff") {
		for _, v := range values {
			fams, hists := exposition(name, v)
			got := string(appendExposition(nil, fams, hists))
			if want := refExposition(fams, hists); got != want {
				t.Fatalf("label %q, value %g:\n got %q\nwant %q", name, v, got, want)
			}
		}
	}
}

// FuzzExpositionMatchesReference: any label value and sample value
// render identically in both renderers, into a fresh buffer and after
// a prefix already in it.
func FuzzExpositionMatchesReference(f *testing.F) {
	for _, v := range append(awkwardNames, "", "node007", `"`, "\\") {
		f.Add(v, 1.5)
	}
	f.Add("x", math.NaN())
	f.Add("x", math.Inf(-1))
	f.Add("x", math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, value string, v float64) {
		fams, hists := exposition(value, v)
		want := refExposition(fams, hists)
		if got := string(appendExposition(nil, fams, hists)); got != want {
			t.Fatalf("label %q, value %g:\n got %q\nwant %q", value, v, got, want)
		}
		prefix := []byte("# prefix\n")
		if got := string(appendExposition(prefix, fams, hists)); got != string(prefix)+want {
			t.Fatalf("label %q, value %g: the render after a prefix differs", value, v)
		}
	})
}
