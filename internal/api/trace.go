package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cwcs/internal/obs"
)

// handleTrace serves the recent span ring: JSONL by default (one span
// per line, newest last), Chrome trace_event JSON with ?format=chrome
// (load it at ui.perfetto.dev). ?limit=N caps the span count. Ring
// reads are lock-free, so this endpoint deliberately skips Exec.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "trace: limit must be a non-negative integer, got %q", q)
			return
		}
		limit = n
	}
	spans := s.Trace.Recent(limit)
	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_ = obs.WriteJSONL(w, spans)
	case "chrome":
		out, err := obs.ChromeTrace(spans)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "trace: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out)
	default:
		writeError(w, http.StatusBadRequest, "trace: unknown format %q (want jsonl or chrome)", format)
	}
}

// handleWatch streams span-close and loop lifecycle events as
// Server-Sent Events. Backpressure is drop-not-block: the tracer
// never waits on a subscriber, so a client that cannot keep up with
// its watchBuffer loses the subscription (its channel closes, the
// handler disconnects it) and cwcs_watch_drops_total increments —
// the loop is never delayed by a stalled watcher.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	pumpSSE(s, w, r, "watch", func() (string, <-chan obs.StreamEvent, func()) {
		sub := s.Trace.Subscribe(watchBuffer)
		return fmt.Sprintf(`{"drops":%d}`, s.Trace.WatchDrops()), sub.C, sub.Close
	}, func(ev obs.StreamEvent) (string, []byte, bool) {
		data, err := json.Marshal(ev)
		return "span", data, err == nil
	})
}

// pumpSSE serves one Server-Sent Events stream: once the writer is
// known to stream, open subscribes — returning the hello payload, the
// frame channel and a stop func run when the stream ends (nil for
// none) — and the pump writes the event-stream headers, the hello
// frame, then every frame render accepts, with a heartbeat comment
// every watchHeartbeat, until the client leaves or the producer closes
// the channel: it does so when the client fell behind, and the pump
// then writes a terminal dropped frame.
func pumpSSE[T any](s *Server, w http.ResponseWriter, r *http.Request, what string,
	open func() (hello string, frames <-chan T, stop func()),
	render func(T) (event string, data []byte, ok bool)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "%s: streaming unsupported", what)
		return
	}
	hello, frames, stop := open()
	if stop != nil {
		defer stop()
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: hello\ndata: %s\n\n", hello)
	fl.Flush()

	ticker := time.NewTicker(orDefault(s.heartbeat, watchHeartbeat))
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case v, ok := <-frames:
			if !ok {
				// The producer dropped this subscriber as too slow; say
				// goodbye if the pipe still works and disconnect.
				fmt.Fprint(w, "event: dropped\ndata: {}\n\n")
				return
			}
			if event, data, ok := render(v); ok {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
				fl.Flush()
			}
		case <-ticker.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		}
	}
}

// writeHistograms renders the tracer's histograms in the Prometheus
// text exposition: cumulative le buckets, _sum and _count, HELP/TYPE
// emitted once per metric name (the action histogram shares one name
// across its kind label values).
func writeHistograms(b *strings.Builder, hs []*obs.Histogram) {
	last := ""
	for _, h := range hs {
		snap := h.Snapshot()
		if snap.Name != last {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", snap.Name, snap.Help, snap.Name)
			last = snap.Name
		}
		// label prefixes the le label of a bucket; series labels _sum
		// and _count.
		label, series := "", ""
		if snap.Label != "" {
			pair := labelPair(snap.Label, snap.LabelValue)
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
