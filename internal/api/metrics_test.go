package api

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// parseLabelBlock decodes the inside of one exposition label block,
// `a="x",b="y"`, accepting exactly the escapes the text format defines
// (\\, \" and \n) and every other rune raw.
func parseLabelBlock(block string) (map[string]string, error) {
	out := map[string]string{}
	for block != "" {
		key, rest, ok := strings.Cut(block, `="`)
		if !ok || key == "" || strings.ContainsAny(key, `",{}`) {
			return nil, fmt.Errorf("malformed label block %q", block)
		}
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			switch c := rest[i]; {
			case c == '\n':
				return nil, fmt.Errorf("label %s: raw line feed", key)
			case c != '\\':
				val.WriteByte(c)
			case i+1 < len(rest) && (rest[i+1] == '\\' || rest[i+1] == '"'):
				i++
				val.WriteByte(rest[i])
			case i+1 < len(rest) && rest[i+1] == 'n':
				i++
				val.WriteByte('\n')
			default:
				return nil, fmt.Errorf("label %s: escape %q is not in the text format", key, rest[i:min(i+2, len(rest))])
			}
		}
		if i == len(rest) {
			return nil, fmt.Errorf("label %s: unterminated value", key)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("label %s twice", key)
		}
		out[key] = val.String()
		rest = rest[i+1:]
		if rest != "" {
			if rest, ok = strings.CutPrefix(rest, ","); !ok {
				return nil, fmt.Errorf("label %s: %q after the value", key, rest)
			}
		}
		block = rest
	}
	return out, nil
}

// awkwardNames are label values Go's %q would have escaped in ways the
// text format does not define (tab, NBSP), or that the format itself
// escapes (quote, backslash, line feed).
var awkwardNames = []string{
	"tab\there",
	"nbsp\u00a0here",
	`quote"here`,
	`back\slash`,
	"line\nfeed",
	"all\t\u00a0\"\\\nof them",
}

// TestLabelValuesRoundTrip: every awkward value renders to a label that
// the strict parser reads back to the original string
// (TestLabelValuesScrapeRoundTrip does it end to end).
func TestLabelValuesRoundTrip(t *testing.T) {
	for _, v := range awkwardNames {
		block := labels("vjob", v, "kind", "cpu")
		kv, err := parseLabelBlock(block[1 : len(block)-1])
		if err != nil {
			t.Fatalf("%q rendered as %s: %v", v, block, err)
		}
		if kv["vjob"] != v || kv["kind"] != "cpu" {
			t.Fatalf("%q rendered as %s, parsed back as %q", v, block, kv)
		}
	}

}

// FuzzLabelValue: any valid UTF-8 value survives a render-then-parse
// round trip, and a value of printable runes only renders exactly as
// Go's %q did, so the names every workload uses scrape byte-identically.
func FuzzLabelValue(f *testing.F) {
	for _, v := range append(awkwardNames, "", "node007", "vjob1", `\n`, `"`, "\\") {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if !utf8.ValidString(v) {
			t.Skip()
		}
		got := labelPair("k", v)
		kv, err := parseLabelBlock(got)
		if err != nil {
			t.Fatalf("%q rendered as %s: %v", v, got, err)
		}
		if kv["k"] != v {
			t.Fatalf("%q rendered as %s, parsed back as %q", v, got, kv["k"])
		}
		if strings.IndexFunc(v, func(r rune) bool { return !strconv.IsPrint(r) }) < 0 {
			if want := fmt.Sprintf("k=%q", v); got != want {
				t.Fatalf("printable %q rendered as %s, %%q renders %s", v, got, want)
			}
		}
	})
}
