package api

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"cwcs/internal/core"
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
// the strict parser reads back to the original string — through
// labels() directly, and end to end as a vjob the ledger charges.
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

	// One vjob overloads node000 until the loop migrates it: the ledger
	// charges it, so its name reaches the scrape as a label value.
	b := newTestbed(t, 4, 2, 4096)
	name := awkwardNames[len(awkwardNames)-1]
	b.place(name, 2, 2, 1024, []string{"node000", "node000"})
	b.locked(func() {
		b.loop.Notify(b.act, core.Event{
			Kind: core.VMArrival, At: b.c.Now(),
			VMs: []string{name + "-vm0", name + "-vm1"}, Nodes: []string{"node000"},
		})
	})
	b.advance(60)
	text := string(b.get(t, "/metrics", http.StatusOK))
	charged := false
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		_, block, _ := splitSample(t, ln+1, line)
		kv, err := parseLabelBlock(block)
		if err != nil {
			t.Fatalf("line %d %q: %v", ln+1, line, err)
		}
		charged = charged || kv["vjob"] == name
	}
	if !charged {
		t.Fatalf("no series charges vjob %q:\n%s", name, text)
	}
}

// TestMetricsScrapeEntersExecOnce: one GET /metrics reads the loop's
// counters and the node gauges under one Exec, so the page describes
// one instant of the cluster and stops the simulator once.
func TestMetricsScrapeEntersExecOnce(t *testing.T) {
	b := newTestbed(t, 4, 2, 4096)
	b.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	b.advance(60)
	var calls atomic.Int32
	exec := b.srv.Exec
	b.srv.Exec = func(fn func()) {
		calls.Add(1)
		exec(fn)
	}
	for scrape := 1; scrape <= 2; scrape++ {
		b.get(t, "/metrics", http.StatusOK)
		if n := calls.Swap(0); n != 1 {
			t.Fatalf("scrape %d entered Exec %d times, want 1", scrape, n)
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

// FuzzSubmitVJob: whatever body POST /v1/vjobs receives, it answers
// 202, 400, 409 or 413 — never a panic and never a 5xx.
func FuzzSubmitVJob(f *testing.F) {
	for _, body := range []string{
		`{"name":"op","vms":[{"name":"op-0","cpu":1,"memory":512,"phases":[{"cpu":1,"seconds":50}]}]}`,
		`{"name":"op","vms":[{"name":"op-0","cpu":1,"memory":512},{"name":"op-0","cpu":1,"memory":512}]}`,
		`{"name":"tab\tnbsp\u00a0","vms":[{"name":"x","cpu":-1,"memory":512}]}`,
		`{"name":"op","vms":[{"name":"op-0","phases":[{"cpu":1,"seconds":-1}]}]}`,
		`{"name":"","vms":[]}`,
		`{"name":"op","vms":[{"name":"op-0","cpu":1e99}]}`,
		`[1,2,3]`,
		`null`,
		``,
		`{`,
	} {
		f.Add([]byte(body))
	}
	b := newTestbed(f, 2, 2, 4096)
	h := b.srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/vjobs", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body)
		}
	})
}
