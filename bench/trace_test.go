package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	outer := tr.begin("loop.wake")
	time.Sleep(2 * time.Millisecond)
	inner := tr.begin("drivers.observe")
	time.Sleep(3 * time.Millisecond)
	inner()
	outer()
	tr.nextOp()
	tr.begin("loop.notify")()

	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 || tr.spans[0].Op != 1 || tr.spans[2].Op != 2 {
		t.Fatalf("spans: %+v", tr.spans)
	}
	self := tr.selfByLayer()
	whole := time.Duration(tr.spans[0].EndNS - tr.spans[0].StartNS)
	child := time.Duration(tr.spans[1].EndNS - tr.spans[1].StartNS)
	notify := time.Duration(tr.spans[2].EndNS - tr.spans[2].StartNS)
	if self["drivers"] != child || self["loop"] != whole-child+notify {
		t.Errorf("self times %v; spans last %v, %v and %v", self, whole, child, notify)
	}
	if got := tr.durations("drivers.observe"); len(got) != 1 || got[0] != child {
		t.Errorf("durations = %v, want [%v]", got, child)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var read []span
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		read = append(read, s)
	}
	if len(read) != 3 || read[1] != tr.spans[1] {
		t.Errorf("read back %+v", read)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.nextOp()
	tr.begin("x.y")()
	if got := tr.durations("x.y"); len(got) != 0 || len(tr.selfByLayer()) != 0 {
		t.Errorf("a nil tracer answered %v", got)
	}
}
