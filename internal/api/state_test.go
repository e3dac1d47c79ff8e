package api_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cwcs/internal/api"
)

// sseEvent is one decoded frame of a test SSE client; heartbeat
// comments decode as the synthetic name "heartbeat".
type sseEvent struct {
	name, data string
}

// sseStream decodes an SSE response body into a channel until the body
// closes.
func sseStream(resp *http.Response) <-chan sseEvent {
	ch := make(chan sseEvent, 1024)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20) // config snapshots are big
		var name string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ch <- sseEvent{name: name, data: strings.TrimPrefix(line, "data: ")}
			case strings.HasPrefix(line, ": heartbeat"):
				ch <- sseEvent{name: "heartbeat"}
			}
		}
	}()
	return ch
}

// watchState opens GET /v1/watch/state with the given query and
// returns the decoded event stream; the connection dies with ctx.
func (d *daemon) watchState(t *testing.T, ctx context.Context, query string) <-chan sseEvent {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", d.url+"/v1/watch/state"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	return sseStream(resp)
}

// nextEvent reads one frame or fails the test.
func nextEvent(t *testing.T, events <-chan sseEvent, what string) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatalf("stream closed waiting for %s", what)
		}
		return ev
	case <-time.After(15 * time.Second):
		t.Fatalf("timeout waiting for %s", what)
	}
	panic("unreachable")
}

// TestWatchStateSnapshotThenDeltas pins the stream contract: after the
// hello, each selected stream opens with a full snapshot (reset for
// nodes), and later frames carry only what changed.
func TestWatchStateSnapshotThenDeltas(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	d.srv.SetWatchPace(0, 5*time.Millisecond, 0)
	d.place("ja", 2, 1, 1024, []string{"node000", "node001"})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := d.watchState(t, ctx, "") // empty selection: everything wired

	if ev := nextEvent(t, events, "hello"); ev.name != "hello" {
		t.Fatalf("first event = %q, want hello", ev.name)
	}
	// The first frame of every stream is a snapshot, in selection order
	// (config, nodes, plan).
	snap := map[string]sseEvent{}
	for len(snap) < 3 {
		ev := nextEvent(t, events, "initial snapshots")
		if _, seen := snap[ev.name]; !seen {
			snap[ev.name] = ev
		}
	}
	var delta api.NodesDelta
	if err := json.Unmarshal([]byte(snap["nodes"].data), &delta); err != nil {
		t.Fatalf("nodes snapshot: %v", err)
	}
	if !delta.Reset || len(delta.Nodes) != 4 {
		t.Fatalf("nodes snapshot: reset=%v with %d nodes, want reset with 4", delta.Reset, len(delta.Nodes))
	}
	if !strings.Contains(snap["config"].data, `"ja-vm0"`) {
		t.Fatalf("config snapshot misses the placed VM: %s", snap["config"].data)
	}

	// A state change arrives as a delta: only the drained node, no
	// reset.
	d.do(t, "POST", "/v1/nodes/node003/drain", nil, http.StatusAccepted)
	for {
		ev := nextEvent(t, events, "nodes delta after drain")
		if ev.name != "nodes" {
			continue // plan/config may legitimately move too
		}
		var nd api.NodesDelta
		if err := json.Unmarshal([]byte(ev.data), &nd); err != nil {
			t.Fatalf("nodes delta: %v", err)
		}
		if nd.Reset {
			t.Fatalf("delta frame carries reset: %s", ev.data)
		}
		if len(nd.Nodes) == 1 && nd.Nodes[0].Name == "node003" && nd.Nodes[0].Draining {
			break
		}
		t.Fatalf("unexpected nodes delta: %s", ev.data)
	}
}

// TestWatchStateStreamValidation: unknown streams are rejected.
func TestWatchStateStreamValidation(t *testing.T) {
	d := newDaemon(t, 2, 2, 4096)
	d.get(t, "/v1/watch/state?streams=bogus", http.StatusBadRequest)
	d.get(t, "/v1/watch/state?streams=nodes,bogus", http.StatusBadRequest)
}

// TestWatchStateHeartbeat: a quiet stream still emits keep-alive
// comments at the configured period.
func TestWatchStateHeartbeat(t *testing.T) {
	d := newDaemon(t, 2, 2, 4096)
	d.srv.SetWatchPace(20*time.Millisecond, time.Hour, 0) // one snapshot, then silence

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := d.watchState(t, ctx, "?streams=nodes")
	for {
		if ev := nextEvent(t, events, "heartbeat"); ev.name == "heartbeat" {
			return
		}
	}
}

// gatedWriter is a ResponseWriter whose Write blocks until the gate
// closes — a stalled SSE client as seen by the handler.
type gatedWriter struct {
	gate <-chan struct{}
	mu   sync.Mutex
	buf  bytes.Buffer
}

func (g *gatedWriter) Header() http.Header { return http.Header{} }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Flush()              {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}
func (g *gatedWriter) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.String()
}

// TestWatchStateSlowClientDropped pins the backpressure policy: a
// subscriber that stops reading is disconnected with a terminal
// dropped event once it falls stateBuffer frames behind, the producer
// never blocks (state keeps changing under it), and /metrics counts
// the drop.
func TestWatchStateSlowClientDropped(t *testing.T) {
	d := newDaemon(t, 4, 2, 4096)
	d.srv.SetWatchPace(0, time.Millisecond, 1)

	gate := make(chan struct{})
	gw := &gatedWriter{gate: gate}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.srv.HandleWatchState(gw, httptest.NewRequest("GET", "/v1/watch/state?streams=nodes", nil).WithContext(ctx))
	}()

	// Keep the node set changing while the handler is stalled on its
	// very first write: the 1-slot buffer fills and the next delta
	// drops the subscriber.
	deadline := time.Now().Add(20 * time.Second)
	for d.srv.StateDrops() == 0 && time.Now().Before(deadline) {
		d.do(t, "POST", "/v1/nodes/node001/drain", nil, http.StatusAccepted)
		d.do(t, "POST", "/v1/nodes/node001/undrain", nil, http.StatusOK)
		time.Sleep(2 * time.Millisecond)
	}
	dropped := d.srv.StateDrops()
	close(gate) // un-stall the client; the handler can now say goodbye
	if dropped == 0 {
		cancel()
		<-done
		t.Fatal("producer never dropped the stalled subscriber")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not terminate after the drop")
	}
	if out := gw.String(); !strings.Contains(out, "event: dropped") {
		t.Fatalf("no terminal dropped event in the stream:\n%s", out)
	}
	text := string(d.get(t, "/metrics", http.StatusOK))
	if v := metricValue(t, text, "cwcs_state_watch_drops_total"); v < 1 {
		t.Fatalf("cwcs_state_watch_drops_total = %g, want >= 1", v)
	}
}

// TestWatchStateReconnectResyncMidEvacuation is the dashboard-restart
// scenario: a client watches a cluster, disconnects while a drain is
// evacuating a node, reconnects mid-flight, and — applying the fresh
// snapshot plus every later delta — converges to exactly what polling
// /v1/nodes reports at quiescence.
func TestWatchStateReconnectResyncMidEvacuation(t *testing.T) {
	d := newDaemon(t, 40, 2, 4096)
	const interval = 2 * time.Millisecond
	d.srv.SetWatchPace(0, interval, 0)
	var busy []string
	for i := 0; i < 24; i++ {
		busy = append(busy, fmt.Sprintf("node%03d", i))
	}
	for j := 0; j < 12; j++ {
		d.place(fmt.Sprintf("job%02d", j), 4, 1, 1024, busy[j*2:j*2+2])
	}
	d.advance(5)

	// First client: sees the quiet snapshot, then its dashboard dies
	// just as the evacuation starts.
	ctx1, cancel1 := context.WithCancel(context.Background())
	events1 := d.watchState(t, ctx1, "?streams=nodes")
	nextEvent(t, events1, "hello")
	var first api.NodesDelta
	if err := json.Unmarshal([]byte(nextEvent(t, events1, "first snapshot").data), &first); err != nil {
		t.Fatal(err)
	}
	if !first.Reset || len(first.Nodes) != 40 {
		t.Fatalf("first snapshot: reset=%v, %d nodes", first.Reset, len(first.Nodes))
	}
	d.do(t, "POST", "/v1/nodes/node000/drain", nil, http.StatusAccepted)
	d.advance(10) // evacuation begins while the client is attached
	cancel1()     // ... and the dashboard restarts mid-flight

	d.advance(20) // state keeps moving with nobody watching

	// Reconnect and maintain a view: snapshot replaces everything,
	// deltas update in place.
	view := map[string]api.NodeJSON{}
	apply := func(ev sseEvent) {
		if ev.name != "nodes" {
			return
		}
		var nd api.NodesDelta
		if err := json.Unmarshal([]byte(ev.data), &nd); err != nil {
			t.Fatalf("bad nodes frame: %v", err)
		}
		if nd.Reset {
			view = map[string]api.NodeJSON{}
		}
		for _, n := range nd.Nodes {
			view[n.Name] = n
		}
		for _, name := range nd.Removed {
			delete(view, name)
		}
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	events2 := d.watchState(t, ctx2, "?streams=nodes")
	apply(nextEvent(t, events2, "resync snapshot"))

	// Drive the evacuation to completion, consuming deltas as they
	// stream.
	evacuated := false
	for i := 0; i < 120 && !evacuated; i++ {
		d.advance(10)
		var st api.NodeJSON
		if err := json.Unmarshal(d.get(t, "/v1/nodes/node000", http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		evacuated = st.Evacuated
		for drained := false; !drained; {
			select {
			case ev := <-events2:
				apply(ev)
			default:
				drained = true
			}
		}
	}
	if !evacuated {
		t.Fatal("node was not evacuated")
	}

	// Quiescence: wait until the stream goes silent, then the converged
	// view must match a poll byte-for-byte.
	for quiet := false; !quiet; {
		select {
		case ev, ok := <-events2:
			if !ok {
				t.Fatal("stream closed before quiescence")
			}
			apply(ev)
		case <-time.After(20 * interval):
			quiet = true
		}
	}
	var polled []api.NodeJSON
	if err := json.Unmarshal(d.get(t, "/v1/nodes", http.StatusOK), &polled); err != nil {
		t.Fatal(err)
	}
	if len(polled) != len(view) {
		t.Fatalf("view has %d nodes, poll has %d", len(view), len(polled))
	}
	for _, n := range polled {
		got, err := json.Marshal(view[n.Name])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("node %s diverged:\n stream %s\n poll   %s", n.Name, got, want)
		}
	}
}
