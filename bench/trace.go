package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (the program under test is not instrumented). Spans are
// named "<layer>.<what>"; Parent is the index of the enclosing span or
// -1; spans of one operation share Op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced round in memory. The harness is
// single-threaded wherever it traces, so there is no locking. A nil
// tracer records nothing: untraced rounds pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// nextOp starts a new operation: spans begun from now on carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNS = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// durations returns the length of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// selfByLayer sums, per layer (the span name up to the first dot),
// each span's self time: its duration minus its direct children's.
func (t *tracer) selfByLayer() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(self[i])
	}
	return out
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
