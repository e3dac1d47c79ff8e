package vjob

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cwcs/internal/resources"
)

func TestJSONRoundTrip(t *testing.T) {
	c := NewConfiguration()
	c.AddNode(NewNode("n1", 2, 4096))
	c.AddNode(NewNode("n2", 2, 4096))
	c.AddVM(NewVM("a", "j1", 1, 1024))
	c.AddVM(NewVM("b", "j1", 0, 512))
	c.AddVM(NewVM("w", "j2", 1, 256))
	mustRun(t, c, "a", "n1")
	if err := c.SetSleeping("b", "n2"); err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Configuration
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(&back) {
		t.Fatalf("round trip lost state:\n%s\nvs\n%s", c, &back)
	}
	if back.VM("a").VJob != "j1" || back.VM("a").MemoryDemand() != 1024 {
		t.Fatal("VM attributes lost")
	}
	if back.StateOf("w") != Waiting {
		t.Fatal("waiting state lost")
	}
	if back.ImageHostOf("b") != "n2" {
		t.Fatal("image host lost")
	}
}

func TestJSONDeterministic(t *testing.T) {
	c := NewConfiguration()
	for _, n := range []string{"n3", "n1", "n2"} {
		c.AddNode(NewNode(n, 1, 1024))
	}
	a, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("marshalling not deterministic")
	}
	if !strings.Contains(string(a), `"n1"`) {
		t.Fatalf("json = %s", a)
	}
}

func TestJSONErrors(t *testing.T) {
	cases := []string{
		`{`, // syntax
		`{"nodes":[{"name":"n","cpu":-1,"memory":0}]}`,
		`{"vms":[{"name":"v","cpu":0,"memory":-1}]}`,
		`{"nodes":[{"name":"n","cpu":1,"memory":10}],"vms":[{"name":"v","cpu":1,"memory":1,"state":"flying"}]}`,
		`{"vms":[{"name":"v","cpu":1,"memory":1,"state":"running","node":"ghost"}]}`,
		`{"vms":[{"name":"v","cpu":1,"memory":1,"state":"terminated"}]}`,
	}
	for _, tc := range cases {
		var c Configuration
		if err := json.Unmarshal([]byte(tc), &c); err == nil {
			t.Errorf("accepted %s", tc)
		}
	}
	// An absent state is a VM never placed.
	var c Configuration
	if err := json.Unmarshal([]byte(`{"vms":[{"name":"v","cpu":1,"memory":1}]}`), &c); err != nil || c.StateOf("v") != Waiting {
		t.Fatalf("absent state: %v, %v", c.StateOf("v"), err)
	}
}

func TestJSONOverwritesReceiver(t *testing.T) {
	var c Configuration
	if err := json.Unmarshal([]byte(`{"nodes":[{"name":"x","cpu":1,"memory":2}]}`), &c); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"nodes":[{"name":"y","cpu":1,"memory":2}]}`), &c); err != nil {
		t.Fatal(err)
	}
	if c.Node("x") != nil || c.Node("y") == nil {
		t.Fatal("receiver not reset on unmarshal")
	}
}

func TestJSONResourceVectors(t *testing.T) {
	in := `{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"disk":600,"net":1000}}],` +
		`"vms":[{"name":"v1","cpu":1,"memory":512,"resources":{"net":250},"state":"running","node":"n1"}]}`
	var c Configuration
	if err := json.Unmarshal([]byte(in), &c); err != nil {
		t.Fatal(err)
	}
	if got := c.Node("n1").Capacity.Get(resources.NetBW); got != 1000 {
		t.Fatalf("node net capacity = %d", got)
	}
	if got := c.VM("v1").Demand.Get(resources.NetBW); got != 250 {
		t.Fatalf("vm net demand = %d", got)
	}
	if got := c.VM("v1").Demand.Get(resources.DiskIO); got != 0 {
		t.Fatalf("vm disk demand = %d", got)
	}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	var back Configuration
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(&back) || back.Node("n1").Capacity != c.Node("n1").Capacity ||
		back.VM("v1").Demand != c.VM("v1").Demand {
		t.Fatalf("round trip changed vectors:\n%s", data)
	}
}

func TestJSONZeroExtrasNormalize(t *testing.T) {
	// Explicit zero extras decode onto the 2-D fast path and re-encode
	// without a resources object at all.
	in := `{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"net":0}}],"vms":[]}`
	var c Configuration
	if err := json.Unmarshal([]byte(in), &c); err != nil {
		t.Fatal(err)
	}
	if c.Node("n1").Capacity != resources.New(2, 4096) {
		t.Fatalf("capacity = %s", c.Node("n1").Capacity)
	}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("resources")) {
		t.Fatalf("zero extras survived the round trip: %s", data)
	}
}

func TestJSONResourceErrors(t *testing.T) {
	cases := []string{
		`{"nodes":[{"name":"n","cpu":1,"memory":1,"resources":{"tape":5}}]}`,   // unknown kind
		`{"nodes":[{"name":"n","cpu":1,"memory":1,"resources":{"cpu":5}}]}`,    // base kind duplicated
		`{"nodes":[{"name":"n","cpu":1,"memory":1,"resources":{"memory":5}}]}`, // base kind duplicated
		`{"nodes":[{"name":"n","cpu":1,"memory":1,"resources":{"net":-1}}]}`,   // negative extra
		`{"vms":[{"name":"v","cpu":1,"memory":1,"resources":{"disk":-2}}]}`,    // negative extra on a VM
	}
	for _, tc := range cases {
		var c Configuration
		if err := json.Unmarshal([]byte(tc), &c); err == nil {
			t.Errorf("accepted %s", tc)
		}
	}
}
