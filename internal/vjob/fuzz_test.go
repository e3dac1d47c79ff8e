package vjob

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzConfigurationJSON checks that every configuration the decoder
// accepts survives a marshal/unmarshal round trip: the re-encoded form
// parses back to an Equal configuration and re-encodes byte-identically
// (the format is the interchange between cmd/entropyd, cmd/planviz and
// hand-written test fixtures, so silent drift would corrupt runs).
func FuzzConfigurationJSON(f *testing.F) {
	f.Add([]byte(`{"nodes":[],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096}],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096},{"name":"n2","cpu":2,"memory":4096}],` +
		`"vms":[{"name":"vm1","vjob":"j1","cpu":1,"memory":1024,"state":"running","node":"n1"},` +
		`{"name":"vm2","vjob":"j1","cpu":0,"memory":512,"state":"sleeping","node":"n2"},` +
		`{"name":"vm3","cpu":1,"memory":256,"state":"waiting"}]}`))
	f.Add([]byte(`{"nodes":[{"name":"n","cpu":0,"memory":0}],` +
		`"vms":[{"name":"v","cpu":0,"memory":0,"state":"running","node":"n"}]}`))
	f.Add([]byte(`null`))
	// Multi-dimensional seeds: extra kinds ride in "resources"; a
	// zero-valued or absent extras map is the 2-D fast path and must
	// normalize away on re-encode.
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"net":1000,"disk":600}}],` +
		`"vms":[{"name":"vm1","cpu":1,"memory":512,"resources":{"net":250},"state":"running","node":"n1"}]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"disk":0}}],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"tape":5}}],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":2,"memory":4096,"resources":{"cpu":9}}],"vms":[]}`))
	f.Add([]byte(`{"nodes":[{"name":"n1","cpu":1,"memory":1,"resources":{"net":-3}}],"vms":[]}`))
	// The document cmd/planviz reads: what -example prints, plus a
	// rule. The decoder must skip the targets and rules it does not own.
	f.Add([]byte(`{
  "nodes": [
    {"name": "n1", "cpu": 1, "memory": 3072},
    {"name": "n2", "cpu": 1, "memory": 3072},
    {"name": "n3", "cpu": 1, "memory": 3072}
  ],
  "vms": [
    {"name": "vm1", "vjob": "j1", "cpu": 1, "memory": 2048, "state": "running", "node": "n1"},
    {"name": "vm2", "vjob": "j2", "cpu": 1, "memory": 2048, "state": "running", "node": "n2"},
    {"name": "vm3", "vjob": "j3", "cpu": 1, "memory": 1024, "state": "waiting"}
  ],
  "targets": {"j2": "sleeping", "j3": "running"},
  "rules": [{"type": "ban", "vms": ["vm3"], "nodes": ["n1"]}]
}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Configuration
		if err := json.Unmarshal(data, &c); err != nil {
			return // rejected input: nothing to round-trip
		}
		first, err := json.Marshal(&c)
		if err != nil {
			t.Fatalf("marshal of accepted configuration failed: %v", err)
		}
		var back Configuration
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput: %s", err, first)
		}
		if !c.Equal(&back) || !back.Equal(&c) {
			t.Fatalf("round trip changed the configuration:\n%s\nvs\n%s", &c, &back)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\n%s\nvs\n%s", first, second)
		}
		// Structural invariants of every decoded configuration.
		for _, v := range c.VMs() {
			st := c.StateOf(v.Name)
			loc := c.LocationOf(v.Name)
			switch st {
			case Running, Sleeping:
				if c.Node(loc) == nil {
					t.Fatalf("VM %s in state %v placed on unknown node %q", v.Name, st, loc)
				}
			case Waiting:
				if loc != "" {
					t.Fatalf("waiting VM %s holds location %q", v.Name, loc)
				}
			}
		}
		// The decoder builds the per-node index through the mutators:
		// RunningOn of every decoded node, and every other query, must
		// answer what a scan of the decoded states answers.
		agree(t, &c, scanOf(&c))
		nodes := c.Nodes()
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1].Name >= nodes[i].Name {
				t.Fatalf("nodes not in deterministic order: %q before %q", nodes[i-1].Name, nodes[i].Name)
			}
		}
		// The decoder is the trust boundary of the resource model: no
		// accepted vector may carry a negative dimension (unknown kinds
		// never make it this far — ParseKind rejects the whole input).
		for _, n := range nodes {
			if n.Capacity.AnyNegative() {
				t.Fatalf("node %s decoded with negative capacity %s", n.Name, n.Capacity)
			}
		}
		for _, v := range c.VMs() {
			if v.Demand.AnyNegative() {
				t.Fatalf("VM %s decoded with negative demand %s", v.Name, v.Demand)
			}
		}
	})
}

// FuzzConfigurationOps runs one sequence of operations through
// Configuration and through the scan reference model (scan_test.go)
// side by side, and after every step requires every query to answer
// identically. Each step is three bytes: an operation and two operands.
// Two configurations are live at once — an original and, after a Clone
// step, its clone, written into the other configuration's storage by
// CloneInto when the step's second operand is odd — and steps switch
// between them, so a clone sharing writable storage with its original,
// or keeping state of what it overwrote, diverges from its reference.
// Membership changes on either side of a clone reach the shared index:
// removals mark ids absent, re-adding the same object revives one, and
// a new name or object copies the index, after which removed ids are
// reused by the next AddVM or AddNode.
func FuzzConfigurationOps(f *testing.F) {
	const (
		addNode = iota
		addVM
		setRunning
		setSleeping
		setWaiting
		removeVM
		removeNode
		clone
		switchLive
		extractRebase
		jsonRoundTrip
		setDemand
		readdVM
		readdNode
		numOps
	)
	f.Add([]byte{
		addNode, 0, 0xff, addNode, 1, 0xff, addVM, 0, 0x31, addVM, 1, 0x13, addVM, 2, 0x20,
		setRunning, 0, 0, setRunning, 1, 0, setSleeping, 2, 0, clone, 0, 0,
		setRunning, 0, 1, switchLive, 0, 0, setRunning, 1, 1, removeNode, 0, 0,
		setDemand, 2, 0x2f, setRunning, 2, 0, jsonRoundTrip, 0, 0, extractRebase, 0x3, 0x7,
	})
	f.Add([]byte{
		addNode, 0, 0x05, addNode, 2, 0x22, addVM, 4, 0x40, addVM, 3, 0x11,
		setRunning, 4, 2, setRunning, 3, 2, setRunning, 4, 2, addVM, 4, 0x05,
		setSleeping, 3, 0, removeNode, 2, 0, setWaiting, 3, 0, removeNode, 2, 0,
		addNode, 2, 0x10, clone, 0, 0, removeVM, 3, 0, switchLive, 0, 0, removeVM, 4, 0,
		extractRebase + 3*numOps, 0xff, 0xff,
	})
	// A clone whose node lists had spare capacity in a shared array
	// would let this walk of v3 through its nodes overwrite a neighbour.
	f.Add([]byte{
		addNode, 0, 0xff, addNode, 1, 0xff, addNode, 2, 0xff,
		addVM, 0, 0, addVM, 1, 0, addVM, 2, 0, addVM, 3, 0,
		setRunning, 0, 0, setRunning, 1, 1, setRunning, 2, 2, clone, 0, 0, switchLive, 0, 0,
		setRunning, 3, 0, setRunning, 3, 1, setRunning, 3, 2, switchLive, 0, 0, setSleeping, 3, 0,
	})
	// A clone into the storage of a configuration with more ids, which
	// owns an index of its own, then written on both sides.
	f.Add([]byte{
		addNode, 0, 0xff, addNode, 1, 0xff, addVM, 0, 0x31, addVM, 1, 0x13, setRunning, 0, 0,
		clone, 0, 0, switchLive, 0, 0, addNode, 2, 0xff, addVM, 2, 0x20, addVM, 3, 0x11,
		setRunning, 2, 2, setSleeping, 3, 2, removeVM, 0, 0, switchLive, 0, 0, clone, 0, 1,
		setRunning, 1, 1, switchLive, 0, 0, setRunning, 0, 1, addVM, 4, 0x05, setRunning, 4, 0,
		removeNode, 1, 0, switchLive, 0, 0, clone, 0, 1, addVM, 5, 0x07,
	})
	// Copy-on-write: both sides of a clone remove, revive and add, so
	// the shared index is marked, revived, copied and reused from.
	f.Add([]byte{
		addNode, 0, 0xff, addNode, 1, 0xff, addVM, 0, 0x31, addVM, 1, 0x13, addVM, 2, 0x20,
		setRunning, 0, 0, setSleeping, 1, 1, clone, 0, 0,
		removeVM, 0, 0, setWaiting, 1, 0, removeNode, 1, 0, readdVM, 0, 1, readdNode, 1, 1,
		switchLive, 0, 0, removeVM, 2, 0, setRunning, 1, 0, addVM, 2, 0x07, removeVM, 1, 0,
		addVM, 3, 0x11, setRunning, 3, 0, switchLive, 0, 0, addNode, 2, 0x0f, setRunning, 0, 2,
		clone, 0, 0, addNode, 0, 0x0e, switchLive, 0, 0, readdVM, 2, 0,
	})
	// Id reuse: removals on an index no clone shares free their ids,
	// and the next additions take them, on both sides of a later clone.
	f.Add([]byte{
		addNode, 0, 0xff, addNode, 1, 0xff, addNode, 2, 0xff,
		addVM, 0, 0, addVM, 1, 0, addVM, 2, 0, setRunning, 0, 0, setRunning, 1, 1, setSleeping, 2, 2,
		removeVM, 1, 0, removeVM, 0, 0, addVM, 5, 0x05, addVM, 6, 0x06, setRunning, 5, 1,
		clone, 0, 0, removeVM, 5, 0, removeNode, 0, 0, removeNode, 1, 0, switchLive, 0, 0,
		removeVM, 6, 0, readdVM, 5, 1, addVM, 4, 0x08, addNode, 3, 0xff, setRunning, 4, 3,
		switchLive, 0, 0, readdNode, 0, 1, addVM, 0, 0x10, setRunning, 0, 0, extractRebase, 0xff, 0xff,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		nodeName := func(b byte) string { return fmt.Sprintf("n%d", b%5) }
		vmName := func(b byte) string { return fmt.Sprintf("v%d", b%7) }
		same := func(what string, got, want error) {
			t.Helper()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: error %v, scan says %v", what, got, want)
			}
		}
		type pair struct {
			c *Configuration
			r *scanConfig
		}
		live := [2]pair{{NewConfiguration(), newScanConfig()}, {NewConfiguration(), newScanConfig()}}
		cur := 0
		// Each step re-checks every query on both configurations, so
		// bound the steps: a slow input also slows its minimization.
		for ops = ops[:min(len(ops), 3*48)]; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0], ops[1], ops[2]
			p := &live[cur]
			switch op % numOps {
			case addNode: // re-adding replaces the node object, keeps placements
				n := NewNode(nodeName(a), int(b%4), 256*int(b/4%8))
				p.c.AddNode(n)
				p.r.addNode(n)
			case addVM: // re-adding a placed VM resets it to Waiting
				v := NewVM(vmName(a), "", int(b%3), 128*int(b/3%8))
				p.c.AddVM(v)
				p.r.addVM(v)
			case setRunning: // includes moves onto the same node
				same("SetRunning", p.c.SetRunning(vmName(a), nodeName(b)), p.r.set(vmName(a), Running, nodeName(b)))
			case setSleeping:
				same("SetSleeping", p.c.SetSleeping(vmName(a), nodeName(b)), p.r.set(vmName(a), Sleeping, nodeName(b)))
			case setWaiting:
				same("SetWaiting", p.c.SetWaiting(vmName(a)), p.r.set(vmName(a), Waiting, ""))
			case removeVM:
				p.c.RemoveVM(vmName(a))
				p.r.removeVM(vmName(a))
			case removeNode:
				same("RemoveNode", p.c.RemoveNode(nodeName(a)), p.r.removeNode(nodeName(a)))
			case clone:
				var into *Configuration
				if b%2 == 1 {
					into = live[1-cur].c
				}
				live[1-cur] = pair{p.c.CloneInto(into), p.r.clone()}
			case switchLive:
				cur = 1 - cur
			case extractRebase:
				extractAndRebase(t, p.c, p.r, op/numOps, a, b, same)
			case jsonRoundTrip:
				data, err := json.Marshal(p.c)
				if err != nil {
					t.Fatal(err)
				}
				back := new(Configuration)
				if err := json.Unmarshal(data, back); err != nil {
					t.Fatal(err)
				}
				r := scanOf(back)
				if !r.equal(p.r) || !reflect.DeepEqual(back.Nodes(), p.c.Nodes()) || !reflect.DeepEqual(back.VMs(), p.c.VMs()) {
					t.Fatalf("JSON round trip changed the configuration:\n%s\nvs\n%s", back, p.r)
				}
				*p = pair{back, r} // fresh node and VM objects from here on
			case setDemand: // in place, through the VM object both sides share
				if v := p.r.vms[vmName(a)]; v != nil {
					v.SetCPUDemand(int(b % 3))
					v.SetMemoryDemand(128 * int(b/3%8))
				}
			case readdVM: // the same object, from the side b picks
				if v := live[int(b)%2].r.vms[vmName(a)]; v != nil {
					p.c.AddVM(v)
					p.r.addVM(v)
				}
			case readdNode:
				if n := live[int(b)%2].r.nodes[nodeName(a)]; n != nil {
					p.c.AddNode(n)
					p.r.addNode(n)
				}
			}
			agree(t, live[0].c, live[0].r)
			agree(t, live[1].c, live[1].r)
			for i := range live {
				if got, want := live[i].c.Equal(live[1-i].c), live[i].r.equal(live[1-i].r); got != want {
					t.Fatalf("Equal = %v, scan says %v", got, want)
				}
			}
		}
	})
}

// extractAndRebase extracts the nodes and VMs picked by the bit masks
// from c and from r, checks the slices agree, moves every VM of the
// slice (to Waiting, onto a slice node as Running or Sleeping, or out
// of the slice) as picked by how, and rebases both bases on the result.
func extractAndRebase(t *testing.T, c *Configuration, r *scanConfig, how, nodeMask, vmMask byte, same func(string, error, error)) {
	t.Helper()
	var nodes, vms []string
	for i, n := range r.nodeOrder {
		if nodeMask>>(i%8)&1 == 1 {
			nodes = append(nodes, n)
		}
	}
	for i, v := range r.vmOrder {
		if vmMask>>(i%8)&1 == 1 {
			vms = append(vms, v)
		}
	}
	src, err := c.Extract(nodes, vms)
	srcR, errR := r.extract(nodes, vms)
	if same("Extract", err, errR); err != nil {
		return
	}
	agree(t, src, srcR)
	dst, dstR := src.Clone(), srcR.clone()
	for i, v := range vms {
		node := ""
		if len(nodes) > 0 {
			node = nodes[(i+int(how))%len(nodes)]
		}
		switch (i + int(how)) % 4 {
		case 0:
			same("slice SetWaiting", dst.SetWaiting(v), dstR.set(v, Waiting, ""))
		case 1:
			same("slice SetRunning", dst.SetRunning(v, node), dstR.set(v, Running, node))
		case 2:
			same("slice SetSleeping", dst.SetSleeping(v, node), dstR.set(v, Sleeping, node))
		case 3:
			dst.RemoveVM(v)
			dstR.removeVM(v)
		}
	}
	agree(t, src, srcR) // the slice's solve left its source alone
	agree(t, dst, dstR)
	same("Rebase", c.Rebase(src, dst), r.rebase(srcR, dstR))
}
