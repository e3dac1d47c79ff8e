package vjob

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cwcs/internal/resources"
)

// Configuration is a snapshot of the cluster: the set of nodes, the set
// of VMs, and for each VM its state and location. Running VMs are
// mapped to their hosting node; sleeping VMs are mapped to the node
// whose storage holds their suspended image (which decides whether a
// later resume is local or remote); waiting VMs hold no location.
//
// A Configuration is a plain value-like structure: Clone returns a deep
// copy of the mapping (nodes and VMs themselves are shared, since the
// planner never mutates them).
//
// Every per-node query (RunningOn, SleepingOn, Used, Free, Fits,
// Violations, RemoveNode's occupancy check) walks only the VMs placed
// on that node, through a membership index kept by the five mutators
// (AddVM, RemoveVM, SetRunning, SetSleeping, SetWaiting). Three rules
// hold it:
//   - It indexes membership, never demand sums. VM.Demand changes in
//     place through the *VM that clones and extracts share (simulator
//     phases, trace replay, workload profiles), so a cached per-node
//     sum would go stale; Used sums the node's list instead.
//   - Each node's list is kept in name order, so RunningOn and
//     SleepingOn return the order a scan of all VMs would.
//   - It allocates no more than a scan did: state and location share
//     one slot map, so a configuration still holds four maps, and Clone
//     copies every list into one flat array of capacity-capped
//     sub-slices, so no two configurations share writable storage.
type Configuration struct {
	nodes map[string]*Node
	vms   map[string]*VM

	slots map[string]slot  // VM name -> state and location
	on    map[string][]*VM // node name -> VMs placed on it, in name order; occupied nodes only

	nodeOrder []string // sorted node names, for deterministic iteration
	vmOrder   []string // sorted VM names
}

// slot is a VM's state and its node: the running host or the image
// host, "" when waiting.
type slot struct {
	state State
	node  string
}

// NewConfiguration returns an empty configuration.
func NewConfiguration() *Configuration {
	return &Configuration{
		nodes: make(map[string]*Node),
		vms:   make(map[string]*VM),
		slots: make(map[string]slot),
		on:    make(map[string][]*VM),
	}
}

// AddNode registers a node. Re-adding a name replaces the previous
// node object but keeps all placements.
func (c *Configuration) AddNode(n *Node) {
	if _, ok := c.nodes[n.Name]; !ok {
		c.nodeOrder = insertSorted(c.nodeOrder, n.Name)
	}
	c.nodes[n.Name] = n
}

// AddVM registers a VM in the Waiting state.
func (c *Configuration) AddVM(v *VM) {
	if _, ok := c.vms[v.Name]; !ok {
		c.vmOrder = insertSorted(c.vmOrder, v.Name)
	}
	c.place(v.Name, slot{state: Waiting})
	c.vms[v.Name] = v
}

// RemoveNode drops a node from the configuration (the effect of taking
// an evacuated node offline for maintenance). It refuses while any VM
// is still placed on the node — running guests or sleeping images must
// be moved first, or their placements would dangle. The error names the
// first such VM in name order.
func (c *Configuration) RemoveNode(name string) error {
	if _, ok := c.nodes[name]; !ok {
		return fmt.Errorf("vjob: unknown node %q", name)
	}
	if held := c.on[name]; len(held) > 0 {
		return fmt.Errorf("vjob: node %s still holds %s (%v)", name, held[0].Name, c.slots[held[0].Name].state)
	}
	delete(c.nodes, name)
	i := sort.SearchStrings(c.nodeOrder, name)
	if i < len(c.nodeOrder) && c.nodeOrder[i] == name {
		c.nodeOrder = append(c.nodeOrder[:i], c.nodeOrder[i+1:]...)
	}
	return nil
}

// RemoveVM drops a VM from the configuration (the effect of a stop
// action followed by garbage collection of the Terminated vjob).
func (c *Configuration) RemoveVM(name string) {
	if _, ok := c.vms[name]; !ok {
		return
	}
	c.place(name, slot{})
	delete(c.vms, name)
	delete(c.slots, name)
	i := sort.SearchStrings(c.vmOrder, name)
	if i < len(c.vmOrder) && c.vmOrder[i] == name {
		c.vmOrder = append(c.vmOrder[:i], c.vmOrder[i+1:]...)
	}
}

// place records the VM's new slot and moves it between the node lists
// when its node changes.
func (c *Configuration) place(vm string, s slot) {
	if old := c.slots[vm].node; old != s.node {
		if old != "" {
			held := c.on[old]
			i, _ := slices.BinarySearchFunc(held, vm, byName)
			if held = slices.Delete(held, i, i+1); len(held) == 0 {
				delete(c.on, old)
			} else {
				c.on[old] = held
			}
		}
		if s.node != "" {
			held := c.on[s.node]
			i, _ := slices.BinarySearchFunc(held, vm, byName)
			c.on[s.node] = slices.Insert(held, i, c.vms[vm])
		}
	}
	c.slots[vm] = s
}

func byName(v *VM, name string) int { return strings.Compare(v.Name, name) }

func insertSorted(s []string, v string) []string {
	i := sort.SearchStrings(s, v)
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Node returns the node with the given name, or nil.
func (c *Configuration) Node(name string) *Node { return c.nodes[name] }

// VM returns the VM with the given name, or nil.
func (c *Configuration) VM(name string) *VM { return c.vms[name] }

// Nodes returns the nodes in deterministic (name) order.
func (c *Configuration) Nodes() []*Node {
	return c.AppendNodes(make([]*Node, 0, len(c.nodeOrder)))
}

// AppendNodes appends the nodes to dst in name order, so a caller that
// reuses dst walks the cluster without allocating.
func (c *Configuration) AppendNodes(dst []*Node) []*Node {
	for _, n := range c.nodeOrder {
		dst = append(dst, c.nodes[n])
	}
	return dst
}

// VMs returns the VMs in deterministic (name) order.
func (c *Configuration) VMs() []*VM {
	out := make([]*VM, 0, len(c.vmOrder))
	for _, n := range c.vmOrder {
		out = append(out, c.vms[n])
	}
	return out
}

// NumNodes returns the number of registered nodes.
func (c *Configuration) NumNodes() int { return len(c.nodes) }

// NumVMs returns the number of registered VMs.
func (c *Configuration) NumVMs() int { return len(c.vms) }

// SetRunning places the VM in the Running state on the given node.
func (c *Configuration) SetRunning(vm, node string) error {
	if err := c.check(vm, node); err != nil {
		return err
	}
	c.place(vm, slot{Running, node})
	return nil
}

// SetSleeping places the VM in the Sleeping state with its suspended
// image stored on the given node.
func (c *Configuration) SetSleeping(vm, node string) error {
	if err := c.check(vm, node); err != nil {
		return err
	}
	c.place(vm, slot{Sleeping, node})
	return nil
}

// SetWaiting moves the VM back to the Waiting state (no location).
func (c *Configuration) SetWaiting(vm string) error {
	if _, ok := c.vms[vm]; !ok {
		return fmt.Errorf("vjob: unknown VM %q", vm)
	}
	c.place(vm, slot{state: Waiting})
	return nil
}

func (c *Configuration) check(vm, node string) error {
	if _, ok := c.vms[vm]; !ok {
		return fmt.Errorf("vjob: unknown VM %q", vm)
	}
	if _, ok := c.nodes[node]; !ok {
		return fmt.Errorf("vjob: unknown node %q", node)
	}
	return nil
}

// StateOf returns the state of the VM. Unknown VMs are Terminated.
func (c *Configuration) StateOf(vm string) State {
	s, ok := c.slots[vm]
	if !ok {
		return Terminated
	}
	return s.state
}

// HostOf returns the node hosting the running VM, or "" when the VM is
// not running.
func (c *Configuration) HostOf(vm string) string {
	if s := c.slots[vm]; s.state == Running {
		return s.node
	}
	return ""
}

// ImageHostOf returns the node storing the sleeping VM's image, or ""
// when the VM is not sleeping.
func (c *Configuration) ImageHostOf(vm string) string {
	if s := c.slots[vm]; s.state == Sleeping {
		return s.node
	}
	return ""
}

// LocationOf returns the placement of the VM regardless of state
// (hosting node when running, image node when sleeping, "" otherwise).
func (c *Configuration) LocationOf(vm string) string { return c.slots[vm].node }

// RunningOn returns the VMs running on the named node, in name order.
func (c *Configuration) RunningOn(node string) []*VM { return c.placedOn(nil, node, Running) }

// AppendRunningOn appends RunningOn(node) to dst.
func (c *Configuration) AppendRunningOn(dst []*VM, node string) []*VM {
	return c.placedOn(dst, node, Running)
}

// SleepingOn returns the VMs whose suspended image lies on the node.
func (c *Configuration) SleepingOn(node string) []*VM { return c.placedOn(nil, node, Sleeping) }

func (c *Configuration) placedOn(dst []*VM, node string, s State) []*VM {
	for _, v := range c.on[node] {
		if c.slots[v.Name].state == s {
			dst = append(dst, v)
		}
	}
	return dst
}

// AppendDangling appends to dst, in name order, the VMs whose location
// (LocationOf) names a node absent from the configuration. It reads the
// index's node keys, not every VM.
func (c *Configuration) AppendDangling(dst []*VM) []*VM {
	start := len(dst)
	for node, held := range c.on {
		if _, ok := c.nodes[node]; !ok {
			dst = append(dst, held...)
		}
	}
	slices.SortFunc(dst[start:], func(a, b *VM) int { return strings.Compare(a.Name, b.Name) })
	return dst
}

// InState returns the VMs currently in the given state, in name order.
func (c *Configuration) InState(s State) []*VM {
	var out []*VM
	for _, name := range c.vmOrder {
		if c.slots[name].state == s {
			out = append(out, c.vms[name])
		}
	}
	return out
}

// Used returns the per-dimension demand of the VMs running on the
// node, summed from the node's own list at the time of the call.
func (c *Configuration) Used(node string) resources.Vector {
	var sum resources.Vector
	for _, v := range c.on[node] {
		if c.slots[v.Name].state == Running {
			sum = sum.Add(v.Demand)
		}
	}
	return sum
}

// Free returns the node's remaining resources per dimension (zero for
// unknown nodes).
func (c *Configuration) Free(node string) resources.Vector {
	n := c.nodes[node]
	if n == nil {
		return resources.Vector{}
	}
	return n.Capacity.Sub(c.Used(node))
}

// Fits reports whether the VM's demands fit in the node's current free
// resources, on every dimension.
func (c *Configuration) Fits(v *VM, node string) bool {
	return v.Demand.Fits(c.Free(node))
}

// FreeResources returns the free resources of every node, every
// dimension at once, as a map built in one O(nodes + VMs) pass, for
// callers that want every node's free vector by name (plan pool
// extraction, the cost model of the solver).
func (c *Configuration) FreeResources() map[string]resources.Vector {
	free := make(map[string]resources.Vector, len(c.nodes))
	for name, n := range c.nodes {
		free[name] = n.Capacity.Sub(c.Used(name))
	}
	return free
}

// Clone returns a deep copy of the placement and state mapping. Node
// and VM objects are shared: they are immutable from the planner's
// point of view.
func (c *Configuration) Clone() *Configuration {
	out := &Configuration{
		nodes:     make(map[string]*Node, len(c.nodes)),
		vms:       make(map[string]*VM, len(c.vms)),
		slots:     make(map[string]slot, len(c.slots)),
		on:        make(map[string][]*VM, len(c.on)),
		nodeOrder: append([]string(nil), c.nodeOrder...),
		vmOrder:   append([]string(nil), c.vmOrder...),
	}
	for k, v := range c.nodes {
		out.nodes[k] = v
	}
	for k, v := range c.vms {
		out.vms[k] = v
	}
	for k, s := range c.slots {
		out.slots[k] = s
	}
	flat := make([]*VM, 0, len(c.vms)) // never outgrown: a VM sits on one list at most
	for node, held := range c.on {
		flat = append(flat, held...)
		out.on[node] = flat[len(flat)-len(held) : len(flat) : len(flat)]
	}
	return out
}

// Equal reports whether the two configurations have the same nodes,
// VMs, states and placements.
func (c *Configuration) Equal(o *Configuration) bool {
	if len(c.nodes) != len(o.nodes) || len(c.vms) != len(o.vms) {
		return false
	}
	for name := range c.nodes {
		if _, ok := o.nodes[name]; !ok {
			return false
		}
	}
	for name := range c.vms {
		if _, ok := o.vms[name]; !ok {
			return false
		}
		if c.slots[name] != o.slots[name] {
			return false
		}
	}
	return true
}

// String renders the configuration node by node, for debugging and for
// the planviz tool.
func (c *Configuration) String() string {
	var b strings.Builder
	for _, n := range c.Nodes() {
		fmt.Fprintf(&b, "%s:", n.Name)
		for _, v := range c.RunningOn(n.Name) {
			fmt.Fprintf(&b, " %s", v.Name)
		}
		for _, v := range c.SleepingOn(n.Name) {
			fmt.Fprintf(&b, " (%s)", v.Name)
		}
		b.WriteByte('\n')
	}
	if w := c.InState(Waiting); len(w) > 0 {
		b.WriteString("waiting:")
		for _, v := range w {
			fmt.Fprintf(&b, " %s", v.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
