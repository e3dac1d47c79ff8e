package api_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cwcs/internal/api"
	"cwcs/internal/core"
	"cwcs/internal/obs"
)

// churn drives one reconfiguration episode: an overload arrival the
// loop has to migrate away, producing spans across the pipeline.
func (d *daemon) churn(t *testing.T) {
	t.Helper()
	// Under the lock from the first write: scrapers may already be
	// reading the configuration (TestConcurrentScrapesDuringChurn).
	d.locked(func() {
		d.place("ja", 2, 2, 1024, []string{"node000", "node000"})
		d.Feed(core.Event{
			Kind: core.VMArrival, At: d.Cluster.Now(),
			VMs: []string{"ja-vm0", "ja-vm1"}, Nodes: []string{"node000"},
		})
	})
	d.advance(60)
}

func TestTraceEndpointJSONL(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	d.churn(t)

	resp, err := http.Get(d.url + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q, want application/x-ndjson", ct)
	}
	var spans []obs.SpanRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		spans = append(spans, r)
	}
	if len(spans) == 0 {
		t.Fatal("no spans after a reconfiguration episode")
	}
	kinds := map[string]bool{}
	var lastSeq uint64
	for _, s := range spans {
		kinds[s.Kind] = true
		if s.Seq <= lastSeq {
			t.Fatalf("spans not in Seq order: %d after %d", s.Seq, lastSeq)
		}
		lastSeq = s.Seq
	}
	for _, want := range []string{"reconfig", "wake", "solve", "action"} {
		if !kinds[want] {
			t.Errorf("no %s span in the trace (have %v)", want, kinds)
		}
	}

	// limit caps the span count and keeps the newest.
	limited := strings.Count(string(d.get(t, "/v1/trace?limit=2", http.StatusOK)), "\n")
	if limited != 2 {
		t.Errorf("limit=2 returned %d spans", limited)
	}
	d.get(t, "/v1/trace?limit=-1", http.StatusBadRequest)
	d.get(t, "/v1/trace?limit=many", http.StatusBadRequest)
	d.get(t, "/v1/trace?format=xml", http.StatusBadRequest)
}

func TestTraceEndpointChromeFormat(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	d.churn(t)

	body := d.get(t, "/v1/trace?format=chrome", http.StatusOK)
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

// TestWatchStreamsLiveDrain subscribes a real SSE client, then drains
// a node through the control plane: the evacuation's spans must arrive
// over the stream while the loop keeps running.
func TestWatchStreamsLiveDrain(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	d.srv.SetWatchPace(50*time.Millisecond, 0, 0)
	d.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	d.advance(30) // bootstrap quietly

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", d.url+"/v1/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}

	events := make(chan string, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				events <- event + " " + strings.TrimPrefix(line, "data: ")
			}
		}
	}()

	// The handshake arrives before any workload moves.
	select {
	case ev := <-events:
		if !strings.HasPrefix(ev, "hello ") {
			t.Fatalf("first event = %q, want hello", ev)
		}
	case <-ctx.Done():
		t.Fatal("no hello event")
	}

	// Drain node000: the loop evacuates it while the client listens.
	d.do(t, "POST", "/v1/nodes/node000/drain", nil, http.StatusAccepted)
	deadline := time.After(25 * time.Second)
	sawSpan := false
	for !sawSpan {
		d.advance(10)
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed before any span arrived")
			}
			if strings.HasPrefix(ev, "span ") {
				var payload obs.StreamEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(ev, "span ")), &payload); err != nil {
					t.Fatalf("bad span payload %q: %v", ev, err)
				}
				if payload.Span.Kind == "" {
					t.Fatalf("span event without a kind: %+v", payload)
				}
				sawSpan = true
			}
		case <-deadline:
			t.Fatal("no span event while draining")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancel() // client disconnects; the handler must return, Cleanup closes the server
}

// TestWatchSlowClientDroppedNotBlocking pins the backpressure policy
// end to end: a subscriber that never drains its 1-slot buffer is
// disconnected (its channel closes), the loop's publishing side never
// blocks, and /metrics counts the drop.
func TestWatchSlowClientDroppedNotBlocking(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	tr := d.srv.Trace
	slow := tr.Subscribe(1) // never drained, like a stalled SSE client
	d.churn(t)              // many spans: must complete without blocking

	if tr.WatchDrops() == 0 {
		t.Fatal("slow subscriber was never dropped")
	}
	// Drain what was buffered; the channel must be closed behind it.
	closed := false
	for i := 0; i < 3 && !closed; i++ {
		_, ok := <-slow.C
		closed = !ok
	}
	if !closed {
		t.Fatal("slow subscriber's channel still open")
	}
	text := string(d.get(t, "/metrics", http.StatusOK))
	if v := metricValue(t, text, "cwcs_watch_drops_total"); v < 1 {
		t.Fatalf("cwcs_watch_drops_total = %g, want >= 1", v)
	}
}

// TestMetricsExpositionWellFormed parses every line of /metrics with
// the tracer's histograms present and checks the exposition contract:
// HELP and TYPE precede each metric family exactly once, names are
// [a-z_]+, counters end in _total, histogram buckets are cumulative
// and consistent with _count, and label values are quoted and use only
// the format's three escapes.
func TestMetricsExpositionWellFormed(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	tr := d.srv.Trace
	d.churn(t)
	text := string(d.get(t, "/metrics", http.StatusOK))

	helped := map[string]bool{}
	typed := map[string]string{}
	samples := map[string]bool{}
	buckets := map[string][]float64{} // series key -> le bounds in order
	counts := map[string]map[string]float64{}

	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, found := strings.Cut(rest, " ")
			if !found || help == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if !helped[name] {
				t.Fatalf("line %d: TYPE %s before its HELP", ln+1, name)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}

		name, labels, value := splitSample(t, ln+1, line)
		if !metricNameRe.MatchString(name) {
			t.Fatalf("line %d: metric name %q not [a-z_]+", ln+1, name)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		family := base
		if typed[name] != "" {
			family = name
		}
		typ, ok := typed[family]
		if !ok {
			t.Fatalf("line %d: sample %s has no TYPE header", ln+1, name)
		}
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Fatalf("line %d: counter %s does not end in _total", ln+1, name)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, value, err)
		}
		samples[family] = true
		kv, err := api.ParseLabelBlock(labels)
		if err != nil {
			t.Fatalf("line %d: %v", ln+1, err)
		}

		if typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			le, ok := kv["le"]
			if !ok {
				t.Fatalf("line %d: histogram bucket without le: %q", ln+1, line)
			}
			key := family + "|" + kv["kind"]
			var bound float64
			if le == "+Inf" {
				bound = float64(1 << 62)
			} else {
				var err error
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("line %d: bad le %q", ln+1, le)
				}
			}
			n, _ := strconv.ParseFloat(value, 64)
			if prev := buckets[key]; len(prev) > 0 {
				lastCount := counts[key][fmt.Sprint(prev[len(prev)-1])]
				if bound <= prev[len(prev)-1] {
					t.Fatalf("line %d: le bounds not increasing for %s", ln+1, key)
				}
				if n < lastCount {
					t.Fatalf("line %d: bucket counts not cumulative for %s", ln+1, key)
				}
			}
			buckets[key] = append(buckets[key], bound)
			if counts[key] == nil {
				counts[key] = map[string]float64{}
			}
			counts[key][fmt.Sprint(bound)] = n
		}
	}

	// Every family with headers produced at least one sample and vice
	// versa. The coverage set is the registry itself plus the tracer's
	// histograms — not a hand-kept name list — so a family cannot ship
	// unrendered.
	for family := range typed {
		if !samples[family] {
			t.Errorf("family %s has headers but no samples", family)
		}
	}
	for _, f := range d.srv.MetricFamilies() {
		if len(f.Series) == 0 {
			if typed[f.Name] != "" {
				t.Errorf("family %s has no samples but left headers in the exposition", f.Name)
			}
			continue
		}
		if !samples[f.Name] {
			t.Errorf("registry family %s missing from exposition", f.Name)
		}
	}
	for _, h := range tr.Histograms() {
		if name := h.Snapshot().Name; !samples[name] {
			t.Errorf("histogram %s missing from exposition", name)
		}
	}
	// Every histogram series ends in +Inf.
	for key, bounds := range buckets {
		if bounds[len(bounds)-1] != float64(1<<62) {
			t.Errorf("histogram %s has no +Inf bucket", key)
		}
	}
}

// TestConcurrentScrapesDuringChurn hammers the read endpoints from
// several goroutines while the simulator churns, as a -race probe of
// the lock-free ring and the histogram snapshots.
func TestConcurrentScrapesDuringChurn(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	tr := d.srv.Trace
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/v1/trace", "/v1/trace?format=chrome"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(d.url + p)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				_ = resp.Body.Close()
			}
		}(path)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sub := tr.Subscribe(4)
			for i := 0; i < 2; i++ {
				select {
				case <-sub.C:
				case <-time.After(time.Millisecond):
				}
			}
			sub.Close()
		}
	}()

	d.churn(t)
	for i := 0; i < 5; i++ {
		d.locked(func() {
			d.Feed(core.Event{
				Kind: core.LoadChange, At: d.Cluster.Now(), VMs: []string{"ja-vm0"},
			})
		})
		d.advance(20)
	}
	close(stop)
	wg.Wait()
}

// TestLabelValuesScrapeRoundTrip: a vjob with an awkward name
// overloads node000 until the loop migrates it; the ledger charges it,
// so its name reaches the scrape as a label value the strict parser
// reads back.
func TestLabelValuesScrapeRoundTrip(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	name := "all\t\u00a0\"\\\nof them"
	d.place(name, 2, 2, 1024, []string{"node000", "node000"})
	d.locked(func() {
		d.Feed(core.Event{
			Kind: core.VMArrival, At: d.Cluster.Now(),
			VMs: []string{name + "-vm0", name + "-vm1"}, Nodes: []string{"node000"},
		})
	})
	d.advance(60)
	text := string(d.get(t, "/metrics", http.StatusOK))
	charged := false
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		_, block, _ := splitSample(t, ln+1, line)
		kv, err := api.ParseLabelBlock(block)
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
	d := newDaemon(t, 4, 2, 4096)
	d.place("ja", 2, 1, 1024, []string{"node000", "node001"})
	d.advance(60)
	var calls atomic.Int32
	exec := d.srv.Exec
	d.srv.Exec = func(fn func()) {
		calls.Add(1)
		exec(fn)
	}
	for scrape := 1; scrape <= 2; scrape++ {
		d.get(t, "/metrics", http.StatusOK)
		if n := calls.Swap(0); n != 1 {
			t.Fatalf("scrape %d entered Exec %d times, want 1", scrape, n)
		}
	}
}

var metricNameRe = regexp.MustCompile(`^[a-z_]+$`)

// splitSample cuts one exposition sample into name, label block and
// value, validating the brace structure.
func splitSample(t *testing.T, ln int, line string) (name, labels, value string) {
	t.Helper()
	sp := strings.LastIndex(line, " ")
	if sp < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	}
	series, value := line[:sp], line[sp+1:]
	if i := strings.IndexByte(series, '{'); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			t.Fatalf("line %d: unterminated label block: %q", ln, line)
		}
		return series[:i], series[i+1 : len(series)-1], value
	}
	return series, "", value
}
