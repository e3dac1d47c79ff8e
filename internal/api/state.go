package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"cwcs/internal/vjob"
)

// stateEvent is one rendered SSE frame of GET /v1/watch/state.
type stateEvent struct {
	name string
	data []byte
}

// nodesDelta is the payload of one `nodes` event: the full name-sorted
// list with Reset on the initial snapshot (and after any resync), then
// only the nodes whose rendered status changed plus the names that
// disappeared.
type nodesDelta struct {
	Reset   bool       `json:"reset,omitempty"`
	Nodes   []nodeJSON `json:"nodes,omitempty"`
	Removed []string   `json:"removed,omitempty"`
}

// parseStateStreams validates the ?streams selection. An empty
// selection means every stream.
func parseStateStreams(q string) ([]string, error) {
	if q == "" {
		return []string{"config", "nodes", "plan"}, nil
	}
	var out []string
	seen := map[string]bool{}
	for _, name := range strings.Split(q, ",") {
		switch name {
		case "nodes", "config", "plan":
		default:
			return nil, fmt.Errorf("unknown stream %q (want nodes, plan or config)", name)
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out, nil
}

// handleWatchState streams cluster state as Server-Sent Events with
// snapshot-then-deltas semantics: the first frame of each selected
// stream is a full snapshot (`reset` for nodes), every later frame
// only what changed — so a dashboard that reconnects mid-evacuation
// resyncs from the snapshot and converges to exactly what polling
// /v1/nodes would report, without polling. Backpressure follows the
// /v1/watch discipline: a client that falls stateQueue frames behind
// gets a terminal `dropped` event and is disconnected
// (cwcs_state_watch_drops_total counts it); the producer — and the
// Exec serializer it samples under — is never blocked by a stalled
// consumer.
func (s *Server) handleWatchState(w http.ResponseWriter, r *http.Request) {
	streams, err := parseStateStreams(r.URL.Query().Get("streams"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "watch/state: %v", err)
		return
	}
	pumpSSE(s, w, r, "watch/state", func() (string, <-chan stateEvent, func()) {
		ch := make(chan stateEvent, orDefault(s.stateBuffer, stateQueue))
		go s.produceState(r.Context(), streams, ch)
		return fmt.Sprintf(`{"streams":%q,"drops":%d}`, strings.Join(streams, ","), s.stateDrops.Load()), ch, nil
	}, func(ev stateEvent) (string, []byte, bool) { return ev.name, ev.data, true })
}

// produceState polls the cluster under Exec at statePoll, diffs
// each selected stream against what it last sent, and feeds the
// subscriber's channel without ever blocking on it: an enqueue that
// finds the buffer full closes the channel instead (the handler then
// writes the terminal dropped event). It owns the channel — only the
// producer closes it — and exits when the request context dies.
func (s *Server) produceState(ctx context.Context, streams []string, ch chan stateEvent) {
	interval := orDefault(s.stateInterval, statePoll)
	want := map[string]bool{}
	for _, st := range streams {
		want[st] = true
	}
	send := func(ev stateEvent) bool {
		select {
		case ch <- ev:
			return true
		default:
			s.stateDrops.Add(1)
			close(ch)
			return false
		}
	}

	lastNodes := map[string][]byte{}
	var lastPlan, lastConfig []byte
	first := true
	pass := func() bool {
		var nodes []nodeJSON
		var pl planJSON
		var cfg *vjob.Configuration
		s.Exec(func() {
			if want["nodes"] {
				nodes = s.nodeListLocked()
			}
			if want["plan"] {
				pl = s.planLocked()
			}
			if want["config"] {
				cfg = s.Config().Clone()
			}
		})
		for _, stream := range streams {
			switch stream {
			case "config":
				data, err := json.Marshal(cfg)
				if err != nil {
					continue
				}
				if first || string(data) != string(lastConfig) {
					lastConfig = data
					if !send(stateEvent{name: "config", data: data}) {
						return false
					}
				}
			case "nodes":
				delta := nodesDelta{Reset: first}
				next := make(map[string][]byte, len(nodes))
				for _, n := range nodes {
					data, err := json.Marshal(n)
					if err != nil {
						continue
					}
					next[n.Name] = data
					if first || string(data) != string(lastNodes[n.Name]) {
						delta.Nodes = append(delta.Nodes, n)
					}
				}
				for name := range lastNodes {
					if _, ok := next[name]; !ok {
						delta.Removed = append(delta.Removed, name)
					}
				}
				sort.Strings(delta.Removed)
				lastNodes = next
				if first || len(delta.Nodes) > 0 || len(delta.Removed) > 0 {
					data, err := json.Marshal(delta)
					if err != nil {
						continue
					}
					if !send(stateEvent{name: "nodes", data: data}) {
						return false
					}
				}
			case "plan":
				data, err := json.Marshal(pl)
				if err != nil {
					continue
				}
				if first || string(data) != string(lastPlan) {
					lastPlan = data
					if !send(stateEvent{name: "plan", data: data}) {
						return false
					}
				}
			}
		}
		first = false
		return true
	}

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if ctx.Err() != nil {
			return
		}
		if !pass() {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
