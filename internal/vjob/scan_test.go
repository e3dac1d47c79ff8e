package vjob

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cwcs/internal/resources"
)

// scanConfig is the reference model of Configuration: the same nodes,
// VMs, states and placements, kept in one state map and one placement
// map, with every per-node query answered by a scan over all VMs in
// name order. It is the implementation the per-node index replaced,
// kept as the oracle that FuzzConfigurationOps runs the index against.
type scanConfig struct {
	nodes     map[string]*Node
	vms       map[string]*VM
	state     map[string]State
	placement map[string]string
	nodeOrder []string
	vmOrder   []string
}

func newScanConfig() *scanConfig {
	return &scanConfig{
		nodes:     map[string]*Node{},
		vms:       map[string]*VM{},
		state:     map[string]State{},
		placement: map[string]string{},
	}
}

// scanOf snapshots c through its exported accessors (not through the
// index), sharing c's node and VM objects.
func scanOf(c *Configuration) *scanConfig {
	r := newScanConfig()
	for _, n := range c.Nodes() {
		r.addNode(n)
	}
	for _, v := range c.VMs() {
		r.addVM(v)
		if loc := c.LocationOf(v.Name); loc != "" {
			r.state[v.Name], r.placement[v.Name] = c.StateOf(v.Name), loc
		}
	}
	return r
}

func (r *scanConfig) addNode(n *Node) {
	if _, ok := r.nodes[n.Name]; !ok {
		r.nodeOrder = insertSorted(r.nodeOrder, n.Name)
	}
	r.nodes[n.Name] = n
}

func (r *scanConfig) addVM(v *VM) {
	if _, ok := r.vms[v.Name]; !ok {
		r.vmOrder = insertSorted(r.vmOrder, v.Name)
	}
	r.vms[v.Name] = v
	r.state[v.Name] = Waiting
	delete(r.placement, v.Name)
}

// removeNode names the first VM in name order still placed on the node.
func (r *scanConfig) removeNode(name string) error {
	if _, ok := r.nodes[name]; !ok {
		return fmt.Errorf("vjob: unknown node %q", name)
	}
	for _, vm := range r.vmOrder {
		if r.placement[vm] == name {
			return fmt.Errorf("vjob: node %s still holds %s (%v)", name, vm, r.state[vm])
		}
	}
	delete(r.nodes, name)
	r.nodeOrder = slices.DeleteFunc(r.nodeOrder, func(n string) bool { return n == name })
	return nil
}

func (r *scanConfig) removeVM(name string) {
	if _, ok := r.vms[name]; !ok {
		return
	}
	delete(r.vms, name)
	delete(r.state, name)
	delete(r.placement, name)
	r.vmOrder = slices.DeleteFunc(r.vmOrder, func(n string) bool { return n == name })
}

func (r *scanConfig) set(vm string, s State, node string) error {
	if _, ok := r.vms[vm]; !ok {
		return fmt.Errorf("vjob: unknown VM %q", vm)
	}
	if s == Waiting {
		r.state[vm] = Waiting
		delete(r.placement, vm)
		return nil
	}
	if _, ok := r.nodes[node]; !ok {
		return fmt.Errorf("vjob: unknown node %q", node)
	}
	r.state[vm], r.placement[vm] = s, node
	return nil
}

func (r *scanConfig) clone() *scanConfig {
	out := newScanConfig()
	for k, v := range r.nodes {
		out.nodes[k] = v
	}
	for k, v := range r.vms {
		out.vms[k] = v
	}
	for k, v := range r.state {
		out.state[k] = v
	}
	for k, v := range r.placement {
		out.placement[k] = v
	}
	out.nodeOrder = slices.Clone(r.nodeOrder)
	out.vmOrder = slices.Clone(r.vmOrder)
	return out
}

func (r *scanConfig) extract(nodes, vms []string) (*scanConfig, error) {
	out := newScanConfig()
	for _, name := range nodes {
		n := r.nodes[name]
		if n == nil {
			return nil, fmt.Errorf("vjob: extract references unknown node %q", name)
		}
		out.addNode(n)
	}
	for _, name := range vms {
		v := r.vms[name]
		if v == nil {
			return nil, fmt.Errorf("vjob: extract references unknown VM %q", name)
		}
		out.addVM(v)
		switch st := r.state[name]; st {
		case Running, Sleeping:
			if err := out.set(name, st, r.placement[name]); err != nil {
				where := map[State]string{Running: "hosted", Sleeping: "imaged"}[st]
				return nil, fmt.Errorf("vjob: extract: %s %s outside the node set: %w", name, where, err)
			}
		}
	}
	return out, nil
}

func (r *scanConfig) rebase(src, dst *scanConfig) error {
	for _, name := range src.vmOrder {
		if dst.vms[name] == nil {
			r.removeVM(name)
			continue
		}
		if r.vms[name] == nil {
			return fmt.Errorf("vjob: rebase of VM %q unknown to the base configuration", name)
		}
		if err := r.set(name, dst.state[name], dst.placement[name]); err != nil {
			return err
		}
	}
	return nil
}

func (r *scanConfig) equal(o *scanConfig) bool {
	if len(r.nodes) != len(o.nodes) || len(r.vms) != len(o.vms) {
		return false
	}
	for name := range r.nodes {
		if _, ok := o.nodes[name]; !ok {
			return false
		}
	}
	for name := range r.vms {
		if _, ok := o.vms[name]; !ok {
			return false
		}
		if r.state[name] != o.state[name] || r.placement[name] != o.placement[name] {
			return false
		}
	}
	return true
}

func (r *scanConfig) stateOf(vm string) State {
	s, ok := r.state[vm]
	if !ok {
		return Terminated
	}
	return s
}

func (r *scanConfig) placedOn(node string, s State) []*VM {
	var out []*VM
	for _, name := range r.vmOrder {
		if r.state[name] == s && r.placement[name] == node {
			out = append(out, r.vms[name])
		}
	}
	return out
}

func (r *scanConfig) inState(s State) []*VM {
	var out []*VM
	for _, name := range r.vmOrder {
		if r.state[name] == s {
			out = append(out, r.vms[name])
		}
	}
	return out
}

// dangling walks every VM for a location that names no node.
func (r *scanConfig) dangling() []*VM {
	var out []*VM
	for _, name := range r.vmOrder {
		if loc := r.placement[name]; loc != "" && r.nodes[loc] == nil {
			out = append(out, r.vms[name])
		}
	}
	return out
}

func (r *scanConfig) used(node string) resources.Vector {
	var sum resources.Vector
	for _, v := range r.placedOn(node, Running) {
		sum = sum.Add(v.Demand)
	}
	return sum
}

func (r *scanConfig) free(node string) resources.Vector {
	n := r.nodes[node]
	if n == nil {
		return resources.Vector{}
	}
	return n.Capacity.Sub(r.used(node))
}

func (r *scanConfig) freeResources() map[string]resources.Vector {
	free := make(map[string]resources.Vector, len(r.nodes))
	for name, n := range r.nodes {
		free[name] = n.Capacity
	}
	for vm, st := range r.state {
		if st == Running {
			node := r.placement[vm]
			free[node] = free[node].Sub(r.vms[vm].Demand)
		}
	}
	return free
}

func (r *scanConfig) violations() []Violation {
	used := make(map[string]resources.Vector)
	for vm, st := range r.state {
		if st == Running {
			used[r.placement[vm]] = used[r.placement[vm]].Add(r.vms[vm].Demand)
		}
	}
	var out []Violation
	for _, name := range r.nodeOrder {
		n, u := r.nodes[name], used[name]
		for _, k := range resources.Kinds() {
			if u.Get(k) > n.Capacity.Get(k) {
				out = append(out, Violation{Node: name, Resource: k.String(), Demand: u.Get(k), Capacity: n.Capacity.Get(k)})
			}
		}
	}
	return out
}

func (r *scanConfig) String() string {
	var b strings.Builder
	for _, name := range r.nodeOrder {
		fmt.Fprintf(&b, "%s:", name)
		for _, v := range r.placedOn(name, Running) {
			fmt.Fprintf(&b, " %s", v.Name)
		}
		for _, v := range r.placedOn(name, Sleeping) {
			fmt.Fprintf(&b, " (%s)", v.Name)
		}
		b.WriteByte('\n')
	}
	if w := r.inState(Waiting); len(w) > 0 {
		b.WriteString("waiting:")
		for _, v := range w {
			fmt.Fprintf(&b, " %s", v.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// agree fails the test unless c answers every query exactly as the
// reference r does, for every known name plus one unknown node and VM.
// VM slices are compared by pointer, so c and r must share VM objects.
func agree(t *testing.T, c *Configuration, r *scanConfig) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s = %v, scan says %v\nindex:\n%s\nscan:\n%s", what, got, want, c, r)
	}
	if got, want := c.NumNodes(), len(r.nodes); got != want {
		fail("NumNodes", got, want)
	}
	if got, want := c.NumVMs(), len(r.vms); got != want {
		fail("NumVMs", got, want)
	}
	nodes := append(slices.Clone(r.nodeOrder), "ghost-node")
	vms := append(slices.Clone(r.vmOrder), "ghost-vm")
	for _, n := range nodes {
		if got, want := c.RunningOn(n), r.placedOn(n, Running); !slices.Equal(got, want) {
			fail("RunningOn("+n+")", got, want)
		}
		if got, want := c.SleepingOn(n), r.placedOn(n, Sleeping); !slices.Equal(got, want) {
			fail("SleepingOn("+n+")", got, want)
		}
		prefix := []*VM{{Name: "prefix"}}
		if got, want := c.AppendRunningOn(prefix, n), append(prefix, r.placedOn(n, Running)...); !slices.Equal(got, want) {
			fail("AppendRunningOn("+n+")", got, want)
		}
		if got, want := c.Used(n), r.used(n); got != want {
			fail("Used("+n+")", got, want)
		}
		if got, want := c.Free(n), r.free(n); got != want {
			fail("Free("+n+")", got, want)
		}
		for _, v := range r.vms {
			if got, want := c.Fits(v, n), v.Demand.Fits(r.free(n)); got != want {
				fail("Fits("+v.Name+", "+n+")", got, want)
			}
		}
	}
	for _, s := range []State{Waiting, Running, Sleeping, Terminated} {
		if got, want := c.InState(s), r.inState(s); !slices.Equal(got, want) {
			fail("InState("+s.String()+")", got, want)
		}
	}
	for _, v := range vms {
		if got, want := c.StateOf(v), r.stateOf(v); got != want {
			fail("StateOf("+v+")", got, want)
		}
		if got, want := c.LocationOf(v), r.placement[v]; got != want {
			fail("LocationOf("+v+")", got, want)
		}
	}
	if got, want := c.AppendNodes(nil), c.Nodes(); !slices.Equal(got, want) {
		fail("AppendNodes", got, want)
	}
	usage := []resources.Vector{resources.New(-1, -1)}
	for _, n := range r.nodeOrder {
		usage = append(usage, r.used(n))
	}
	if got := c.AppendUsage(usage[:1:1]); !slices.Equal(got, usage) {
		fail("AppendUsage", got, usage)
	}
	if got, want := c.AppendDangling(nil), r.dangling(); !slices.Equal(got, want) {
		fail("AppendDangling", got, want)
	}
	if got, want := c.FreeResources(), r.freeResources(); !reflect.DeepEqual(got, want) {
		fail("FreeResources", got, want)
	}
	if got, want := c.Violations(), r.violations(); !reflect.DeepEqual(got, want) {
		fail("Violations", got, want)
	}
	head := []Violation{{Node: "head"}}
	if got, want := c.AppendViolations(head), append(head[:1:1], r.violations()...); !reflect.DeepEqual(got, want) {
		fail("AppendViolations", got, want)
	}
	if got, want := c.Viable(), len(r.violations()) == 0; got != want {
		fail("Viable", got, want)
	}
	if got, want := c.String(), r.String(); got != want {
		fail("String", got, want)
	}
	checkIndex(t, c)
}

// checkIndex fails the test unless c's ids are consistent: the index
// maps each name to the id holding it and lists exactly the indexed ids
// in name order, the free lists hold the other ids, and each present
// node's list links, in name order, exactly the VMs whose slot names
// that node.
func checkIndex(t *testing.T, c *Configuration) {
	t.Helper()
	ix := c.ix
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("index: "+format+"\n%s", append(args, c)...)
	}
	if len(c.slots) != len(ix.vms) || len(c.heads) != len(ix.nodes) {
		fail("%d slots for %d VM ids, %d heads for %d node ids", len(c.slots), len(ix.vms), len(c.heads), len(ix.nodes))
	}
	if len(ix.nodeID) != len(ix.nodeOrder) || len(ix.nodeOrder)+len(ix.freeNodes) != len(ix.nodes) {
		fail("%d node names, %d ordered, %d free, %d ids", len(ix.nodeID), len(ix.nodeOrder), len(ix.freeNodes), len(ix.nodes))
	}
	if len(ix.vmID) != len(ix.vmOrder) || len(ix.vmOrder)+len(ix.freeVMs) != len(ix.vms) {
		fail("%d VM names, %d ordered, %d free, %d ids", len(ix.vmID), len(ix.vmOrder), len(ix.freeVMs), len(ix.vms))
	}
	for i, id := range ix.nodeOrder {
		if n := ix.nodes[id]; n == nil || ix.nodeID[n.Name] != id || (i > 0 && ix.nodes[ix.nodeOrder[i-1]].Name >= n.Name) {
			fail("node order %v broken at %d", ix.nodeOrder, i)
		}
	}
	for i, id := range ix.vmOrder {
		if v := ix.vms[id]; v == nil || ix.vmID[v.Name] != id || (i > 0 && ix.vms[ix.vmOrder[i-1]].Name >= v.Name) {
			fail("VM order %v broken at %d", ix.vmOrder, i)
		}
	}
	for _, id := range ix.freeNodes {
		if ix.nodes[id] != nil || c.heads[id] != gone {
			fail("free node id %d holds %v, head %d", id, ix.nodes[id], c.heads[id])
		}
	}
	for _, id := range ix.freeVMs {
		if ix.vms[id] != nil || c.slots[id] != removedSlot {
			fail("free VM id %d holds %v, slot %+v", id, ix.vms[id], c.slots[id])
		}
	}
	if !c.shared.Load() {
		// A configuration alone on its index marks no id absent: it
		// frees it.
		for _, id := range ix.nodeOrder {
			if c.heads[id] == gone {
				fail("unshared index keeps absent node %s", ix.nodes[id].Name)
			}
		}
		for _, id := range ix.vmOrder {
			if c.slots[id].state == Terminated {
				fail("unshared index keeps absent VM %s", ix.vms[id].Name)
			}
		}
	}
	placed := 0
	for id, s := range c.slots {
		if (s.state == Running || s.state == Sleeping) != (s.node != none) || (s.node == none && s.next != none) {
			fail("VM id %d in state %v on node id %d, next %d", id, s.state, s.node, s.next)
		}
		if s.node != none {
			placed++
		}
	}
	linked := 0
	for n, head := range c.heads {
		if head == gone {
			continue
		}
		prev := ""
		for id := head; id != none; id = c.slots[id].next {
			if linked++; linked > placed {
				fail("node lists link more than the %d placed VMs", placed)
			}
			if name := ix.vms[id].Name; c.slots[id].node != int32(n) || name <= prev {
				fail("list of node %s: %s (on node id %d) after %q", ix.nodes[n].Name, name, c.slots[id].node, prev)
			} else {
				prev = name
			}
		}
	}
	if linked != placed {
		fail("node lists link %d VMs, %d are placed", linked, placed)
	}
}

// FreeResources is the whole-cluster free map, by node name, that
// Configuration built before it stored dense ids; agree holds the
// per-node accessors to it.
func (c *Configuration) FreeResources() map[string]resources.Vector {
	free := make(map[string]resources.Vector, c.NumNodes())
	for _, n := range c.Nodes() {
		free[n.Name] = c.Free(n.Name)
	}
	return free
}

// insertSorted inserts v into the sorted slice s, the reference
// model's name order.
func insertSorted(s []string, v string) []string {
	i := sort.SearchStrings(s, v)
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
