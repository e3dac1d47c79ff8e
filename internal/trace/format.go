package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"cwcs/internal/resources"
)

// FormatVersion is the trace file format this package reads and
// writes. A trace file is JSON Lines: one Record per line, each line
// self-describing with `"v": 1`, so a stream can be cut or
// concatenated at any line boundary and still identify itself.
//
// The format is shaped like the public Azure / Google cluster traces
// reduced to what the reconfiguration loop consumes: a VM arrives
// with a per-dimension demand, its demand changes over time, and it
// departs. Three events, in virtual seconds, sorted by time:
//
//	{"v":1,"at":0,"event":"arrive","vm":"web-00","vjob":"web","demand":{"cpu":1,"memory":512}}
//	{"v":1,"at":300,"event":"load","vm":"web-00","demand":{"cpu":2,"memory":512}}
//	{"v":1,"at":900,"event":"depart","vm":"web-00"}
//
// Demand keys are the registered resource kinds (resources.Kinds:
// cpu, memory, net, disk); a key absent from a load record means that
// dimension drops to zero, exactly like a phase change. Decode
// validates the stream strictly — unknown fields, unknown kinds,
// negative demands, time going backwards, a load or depart for a VM
// never seen or already departed are all errors with line numbers —
// and never panics on malformed input (FuzzTraceDecode pins this).
const FormatVersion = 1

// Trace event names.
const (
	// EventArrive introduces a VM: vjob and demand are required.
	EventArrive = "arrive"
	// EventLoad changes a live VM's demand: demand is required.
	EventLoad = "load"
	// EventDepart retires a live VM: demand must be absent.
	EventDepart = "depart"
)

// Record is one line of a trace file.
type Record struct {
	// V is the format version (FormatVersion).
	V int `json:"v"`
	// At is the event instant in virtual seconds.
	At float64 `json:"at"`
	// Event is one of arrive, load, depart.
	Event string `json:"event"`
	// VM names the machine the event concerns.
	VM string `json:"vm"`
	// VJob is the job the VM belongs to (arrive only).
	VJob string `json:"vjob,omitempty"`
	// Demand is the per-dimension demand in force from At on, keyed by
	// resource kind name (arrive and load only).
	Demand map[string]int `json:"demand,omitempty"`
}

// Vector converts the record's demand map to a resource vector through
// resources.ParseVector, the check Decode applies to every demand.
func (r Record) Vector() (resources.Vector, error) {
	return resources.ParseVector(r.Demand)
}

// Decode reads a JSONL trace stream and returns its records, strictly
// validated: versioned lines, known events, monotone non-decreasing
// time, demands on registered kinds only, and a consistent VM life
// cycle (arrive before load/depart, no double arrive or depart).
// Blank lines and #-comment lines are skipped. Errors carry the
// 1-based line number. Decode never panics, whatever the input.
func Decode(r io.Reader) ([]Record, error) {
	var recs []Record
	live := map[string]bool{} // arrived and not yet departed
	gone := map[string]bool{} // departed
	prev := 0.0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		var rec Record
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("trace: line %d: trailing data after record", line)
		}
		if err := validate(rec, prev, live, gone); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		prev = rec.At
		switch rec.Event {
		case EventArrive:
			live[rec.VM] = true
		case EventDepart:
			delete(live, rec.VM)
			gone[rec.VM] = true
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %v", line, err)
	}
	return recs, nil
}

func validate(rec Record, prev float64, live, gone map[string]bool) error {
	if rec.V != FormatVersion {
		return fmt.Errorf("version %d, want %d", rec.V, FormatVersion)
	}
	if rec.VM == "" {
		return fmt.Errorf("missing vm")
	}
	if rec.At < 0 {
		return fmt.Errorf("negative time %v", rec.At)
	}
	if rec.At < prev {
		return fmt.Errorf("time goes backwards (%v after %v)", rec.At, prev)
	}
	if rec.At != rec.At { // NaN
		return fmt.Errorf("time is NaN")
	}
	if _, err := rec.Vector(); err != nil {
		return fmt.Errorf("%w demand for %s", err, rec.VM)
	}
	switch rec.Event {
	case EventArrive:
		if live[rec.VM] || gone[rec.VM] {
			return fmt.Errorf("vm %s arrives twice", rec.VM)
		}
		if rec.VJob == "" {
			return fmt.Errorf("arrive without vjob for %s", rec.VM)
		}
		if len(rec.Demand) == 0 {
			return fmt.Errorf("arrive without demand for %s", rec.VM)
		}
	case EventLoad:
		if !live[rec.VM] {
			return fmt.Errorf("load for unknown or departed vm %s", rec.VM)
		}
		if len(rec.Demand) == 0 {
			return fmt.Errorf("load without demand for %s", rec.VM)
		}
	case EventDepart:
		if !live[rec.VM] {
			return fmt.Errorf("depart for unknown or departed vm %s", rec.VM)
		}
		if len(rec.Demand) != 0 {
			return fmt.Errorf("depart with demand for %s", rec.VM)
		}
	default:
		return fmt.Errorf("unknown event %q", rec.Event)
	}
	return nil
}

// Encode writes records as a JSONL trace stream, one line each,
// stamping FormatVersion. It does not re-validate: encode what Decode
// accepted, or what a generator built and sorted with SortRecords, and
// the stream round-trips.
func Encode(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		rec.V = FormatVersion
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("trace: %v", err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// SortRecords orders records by (time, arrive-before-load-before-
// depart, vm) — the canonical order a generator sorts into before
// encoding, so a VM's arrival always precedes its load changes and
// departure at equal timestamps.
func SortRecords(recs []Record) {
	rank := map[string]int{EventArrive: 0, EventLoad: 1, EventDepart: 2}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].At != recs[j].At {
			return recs[i].At < recs[j].At
		}
		if rank[recs[i].Event] != rank[recs[j].Event] {
			return rank[recs[i].Event] < rank[recs[j].Event]
		}
		return recs[i].VM < recs[j].VM
	})
}
