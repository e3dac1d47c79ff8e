package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

func TestExampleSpecSolves(t *testing.T) {
	prob, err := load([]byte(exampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if prob.Src.NumNodes() != 3 || prob.Src.NumVMs() != 3 || len(prob.Rules) != 0 {
		t.Fatalf("parsed %d nodes, %d vms, %d rules", prob.Src.NumNodes(), prob.Src.NumVMs(), len(prob.Rules))
	}
	if prob.Target["j2"] != vjob.Sleeping || prob.Target["j3"] != vjob.Running {
		t.Fatalf("targets = %v", prob.Target)
	}
	res, err := core.Optimizer{}.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dst.Viable() {
		t.Fatal("example spec yields non-viable result")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := map[string]string{
		"unknown vm state":     `{"nodes":[{"name":"n1","cpu":1,"memory":10}],"vms":[{"name":"v","cpu":1,"memory":1,"state":"flying"}]}`,
		"unknown node":         `{"vms":[{"name":"v","cpu":1,"memory":1,"state":"running","node":"ghost"}]}`,
		"unknown sleep node":   `{"vms":[{"name":"v","cpu":1,"memory":1,"state":"sleeping","node":"ghost"}]}`,
		"unknown target state": `{"nodes":[{"name":"n1","cpu":1,"memory":10}],"targets":{"j":"flying"}}`,
		"empty target state":   `{"targets":{"j":""}}`,
		"empty node name":      `{"nodes":[{"name":"","cpu":1,"memory":10}]}`,
		"empty vm name":        `{"nodes":[{"name":"n1","cpu":1,"memory":10}],"vms":[{"name":"","cpu":1,"memory":1,"state":"running","node":"n1"}]}`,
		"unknown rule type":    `{"rules":[{"type":"affinity","vms":["v"]}]}`,
	}
	for name, raw := range cases {
		if _, err := load([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTargetStates(t *testing.T) {
	prob, err := load([]byte(`{"targets":{"a":"running","b":"sleeping","c":"terminated","d":"waiting"}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]vjob.State{
		"a": vjob.Running, "b": vjob.Sleeping, "c": vjob.Terminated, "d": vjob.Waiting,
	}
	if !reflect.DeepEqual(prob.Target, want) {
		t.Errorf("targets = %v, want %v", prob.Target, want)
	}
}

// TestLoadReadsConfigBody: planviz's input is the GET /v1/config body
// plus targets and rules. A configuration with an extra dimension, a
// sleeping VM, a waiting VM and a VM of no vjob, marshalled as the
// daemon serves it, loads back Equal, with the targets and rules the
// document adds.
func TestLoadReadsConfigBody(t *testing.T) {
	want := vjob.NewConfiguration()
	for _, n := range []string{"n1", "n2"} {
		cap, err := resources.FromWire(2, 4096, map[string]int{"net": 1000})
		if err != nil {
			t.Fatal(err)
		}
		want.AddNode(vjob.NewNodeRes(n, cap))
	}
	web, err := resources.FromWire(1, 1024, map[string]int{"net": 250})
	if err != nil {
		t.Fatal(err)
	}
	want.AddVM(vjob.NewVMRes("web", "j1", web))
	want.AddVM(vjob.NewVM("batch", "j2", 1, 512))
	want.AddVM(vjob.NewVM("queued", "j3", 1, 512))
	want.AddVM(vjob.NewVM("loner", "", 0, 256))
	for _, err := range []error{
		want.SetRunning("web", "n1"),
		want.SetSleeping("batch", "n2"),
		want.SetRunning("loner", "n2"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.TrimSuffix(string(body), "}") +
		`,"targets":{"j2":"running","j3":"running"},"rules":[{"type":"ban","vms":["queued"],"nodes":["n1"]}]}`

	prob, err := load([]byte(doc))
	if err != nil {
		t.Fatalf("%v\n%s", err, doc)
	}
	if !prob.Src.Equal(want) {
		t.Fatalf("loaded configuration differs:\n%s\nwant\n%s", prob.Src, want)
	}
	if want := map[string]vjob.State{"j2": vjob.Running, "j3": vjob.Running}; !reflect.DeepEqual(prob.Target, want) {
		t.Fatalf("targets = %v", prob.Target)
	}
	if want := []core.PlacementRule{core.Ban{VMs: []string{"queued"}, Nodes: []string{"n1"}}}; !reflect.DeepEqual(prob.Rules, want) {
		t.Fatalf("rules = %#v", prob.Rules)
	}
}

func TestRuleCompilation(t *testing.T) {
	cases := []struct {
		raw  string
		want string
	}{
		{`{"type":"spread","vms":["a","b"]}`, "core.Spread"},
		{`{"type":"ban","vms":["a"],"nodes":["n1"]}`, "core.Ban"},
		{`{"type":"fence","vms":["a"],"nodes":["n1"]}`, "core.Fence"},
		{`{"type":"gather","vms":["a","b"]}`, "core.Gather"},
	}
	for _, tc := range cases {
		var rs ruleSpec
		if err := json.Unmarshal([]byte(tc.raw), &rs); err != nil {
			t.Fatal(err)
		}
		rule, err := rs.compile()
		if err != nil {
			t.Fatalf("%s: %v", tc.raw, err)
		}
		if rule == nil {
			t.Fatalf("%s: nil rule", tc.raw)
		}
	}
	if _, err := (ruleSpec{Type: "affinity"}).compile(); err == nil {
		t.Fatal("unknown rule type accepted")
	}
}

func TestIndent(t *testing.T) {
	if got := indent("a\nb\n"); got != "  a\n  b\n" {
		t.Fatalf("indent = %q", got)
	}
	if got := indent("tail"); got != "  tail\n" {
		t.Fatalf("indent without newline = %q", got)
	}
	if got := indent("a\n\nb\n"); got != "  a\n  \n  b\n" {
		t.Fatalf("indent of a blank line = %q", got)
	}
	if got := indent(""); got != "" {
		t.Fatalf("indent of nothing = %q", got)
	}
}
