package vjob

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"cwcs/internal/resources"
)

// Configuration is a snapshot of the cluster: the set of nodes, the set
// of VMs, and for each VM its state and location. Running VMs are
// mapped to their hosting node; sleeping VMs are mapped to the node
// whose storage holds their suspended image (which decides whether a
// later resume is local or remote); waiting VMs hold no location.
//
// A Configuration is a plain value-like structure: Clone returns an
// independent copy of the mapping (nodes and VMs themselves are
// shared, since the planner never mutates them).
//
// The API is name-based, but a configuration stores everything on
// dense integer ids, so a query hashes a name at most once, where it
// enters, and walks ids after that:
//   - An index maps names to ids and back and lists the ids in name
//     order. Clones share it copy-on-write: Clone marks both sides
//     shared, and the first mutator that would write the index
//     (adding a new name, or a new object under a known name) copies
//     it. Removal never writes a shared index: it only marks the id
//     absent in the configuration's own state, and the copy leaves the
//     marked ids behind for reuse, so slot storage stays bounded by the
//     live VMs however long a configuration lives.
//   - Each configuration owns two flat slices, which are all Clone
//     copies: a slot per VM id (state, node id, and the next VM id on
//     the same node) and a list head per node id. So every node's VMs
//     form one list, kept in name order, and RunningOn and SleepingOn
//     return the order a scan of all VMs would.
//   - It records membership, never demand sums. VM.Demand changes in
//     place through the *VM that clones and extracts share (simulator
//     phases, trace replay, workload profiles), so a cached per-node
//     sum would go stale; Used sums the node's list instead.
//
// Clone may run concurrently with readers and with other Clones of the
// same configuration: it writes nothing on its receiver but the atomic
// shared marker.
type Configuration struct {
	ix *index
	// shared is set by Clone on both sides: ix may be read by another
	// configuration, so a mutator that writes ix copies it first (own).
	shared atomic.Bool

	slots []slot  // by VM id; len(slots) == len(ix.vms)
	heads []int32 // by node id: the node's first VM id, none when empty, gone when absent; len(heads) == len(ix.nodes)

	numNodes, numVMs int
}

// slot is a VM id's state, its node (the running host or the image
// host, none when waiting) and the next VM id on that node's list. A
// Terminated slot holds no VM of this configuration.
type slot struct {
	state State
	node  int32
	next  int32
}

const (
	none int32 = -1 // no node, or the end of a node's list
	gone int32 = -2 // heads: the node id is absent from this configuration
)

var (
	waitingSlot = slot{state: Waiting, node: none, next: none}
	removedSlot = slot{state: Terminated, node: none, next: none}
)

// index is the name side of a configuration, shared by its clones
// until one of them writes it.
type index struct {
	nodes  []*Node // by node id; nil for a free id
	vms    []*VM   // by VM id; nil for a free id
	nodeID map[string]int32
	vmID   map[string]int32
	// nodeOrder and vmOrder list the indexed ids in name order, for
	// deterministic iteration; a configuration skips the ids it marked
	// absent.
	nodeOrder, vmOrder []int32
	// freeNodes and freeVMs are ids no name holds, reused before the
	// slices grow.
	freeNodes, freeVMs []int32
}

func newIndex(nodes, vms int) *index {
	return &index{
		nodes:  make([]*Node, 0, nodes),
		vms:    make([]*VM, 0, vms),
		nodeID: make(map[string]int32, nodes),
		vmID:   make(map[string]int32, vms),
	}
}

// NewConfiguration returns an empty configuration.
func NewConfiguration() *Configuration { return &Configuration{ix: newIndex(0, 0)} }

// nodeOf returns the id of the named node, if it is in c.
func (c *Configuration) nodeOf(name string) (int32, bool) {
	id, ok := c.ix.nodeID[name]
	return id, ok && c.heads[id] != gone
}

// vmOf returns the id of the named VM, if it is in c.
func (c *Configuration) vmOf(name string) (int32, bool) {
	id, ok := c.ix.vmID[name]
	return id, ok && c.slots[id].state != Terminated
}

// own gives c an index of its own before a write, if Clone shared it.
// The copy keeps every id c holds and frees the ids c marked absent.
func (c *Configuration) own() {
	if !c.shared.Load() {
		return
	}
	old := c.ix
	ix := &index{
		nodes:     make([]*Node, len(old.nodes)),
		vms:       make([]*VM, len(old.vms)),
		nodeID:    make(map[string]int32, c.numNodes),
		vmID:      make(map[string]int32, c.numVMs),
		nodeOrder: make([]int32, 0, c.numNodes),
		vmOrder:   make([]int32, 0, c.numVMs),
	}
	for _, id := range old.nodeOrder {
		if n := old.nodes[id]; c.heads[id] != gone {
			ix.nodes[id], ix.nodeID[n.Name] = n, id
			ix.nodeOrder = append(ix.nodeOrder, id)
		}
	}
	for _, id := range old.vmOrder {
		if v := old.vms[id]; c.slots[id].state != Terminated {
			ix.vms[id], ix.vmID[v.Name] = v, id
			ix.vmOrder = append(ix.vmOrder, id)
		}
	}
	for id, n := range ix.nodes {
		if n == nil {
			ix.freeNodes = append(ix.freeNodes, int32(id))
		}
	}
	for id, v := range ix.vms {
		if v == nil {
			ix.freeVMs = append(ix.freeVMs, int32(id))
		}
	}
	c.ix = ix
	c.shared.Store(false)
}

// AddNode registers a node. Re-adding a name replaces the previous
// node object but keeps all placements.
func (c *Configuration) AddNode(n *Node) {
	if id, ok := c.ix.nodeID[n.Name]; ok && c.ix.nodes[id] == n {
		if c.heads[id] == gone { // re-added after a removal on a shared index
			c.heads[id] = none
			c.numNodes++
		}
		return
	}
	c.own()
	ix := c.ix
	if id, ok := ix.nodeID[n.Name]; ok { // own freed every absent id, so this one is live
		ix.nodes[id] = n
		return
	}
	var id int32
	if k := len(ix.freeNodes); k > 0 {
		id, ix.freeNodes = ix.freeNodes[k-1], ix.freeNodes[:k-1]
		ix.nodes[id], c.heads[id] = n, none
	} else {
		id = int32(len(ix.nodes))
		ix.nodes, c.heads = append(ix.nodes, n), append(c.heads, none)
	}
	ix.nodeID[n.Name] = id
	i, _ := slices.BinarySearchFunc(ix.nodeOrder, n.Name, ix.byNodeName)
	ix.nodeOrder = slices.Insert(ix.nodeOrder, i, id)
	c.numNodes++
}

// AddVM registers a VM in the Waiting state.
func (c *Configuration) AddVM(v *VM) {
	if id, ok := c.ix.vmID[v.Name]; ok && c.ix.vms[id] == v {
		if c.slots[id].state == Terminated { // re-added after a removal on a shared index
			c.slots[id] = waitingSlot
			c.numVMs++
		} else {
			c.place(id, Waiting, none)
		}
		return
	}
	c.own()
	ix := c.ix
	if id, ok := ix.vmID[v.Name]; ok { // own freed every absent id, so this one is live
		c.place(id, Waiting, none)
		ix.vms[id] = v
		return
	}
	var id int32
	if k := len(ix.freeVMs); k > 0 {
		id, ix.freeVMs = ix.freeVMs[k-1], ix.freeVMs[:k-1]
		ix.vms[id], c.slots[id] = v, waitingSlot
	} else {
		id = int32(len(ix.vms))
		ix.vms, c.slots = append(ix.vms, v), append(c.slots, waitingSlot)
	}
	ix.vmID[v.Name] = id
	i, _ := slices.BinarySearchFunc(ix.vmOrder, v.Name, ix.byVMName)
	ix.vmOrder = slices.Insert(ix.vmOrder, i, id)
	c.numVMs++
}

func (ix *index) byNodeName(id int32, name string) int {
	return strings.Compare(ix.nodes[id].Name, name)
}

func (ix *index) byVMName(id int32, name string) int { return strings.Compare(ix.vms[id].Name, name) }

// RemoveNode drops a node from the configuration (the effect of taking
// an evacuated node offline for maintenance). It refuses while any VM
// is still placed on the node — running guests or sleeping images must
// be moved first, or their placements would dangle. The error names the
// first such VM in name order. On a shared index it only marks the id
// absent; otherwise it frees the id for reuse.
func (c *Configuration) RemoveNode(name string) error {
	id, ok := c.nodeOf(name)
	if !ok {
		return fmt.Errorf("vjob: unknown node %q", name)
	}
	if first := c.heads[id]; first != none {
		return fmt.Errorf("vjob: node %s still holds %s (%v)", name, c.ix.vms[first].Name, c.slots[first].state)
	}
	c.heads[id] = gone
	c.numNodes--
	if !c.shared.Load() {
		ix := c.ix
		i, _ := slices.BinarySearchFunc(ix.nodeOrder, name, ix.byNodeName)
		ix.nodeOrder = slices.Delete(ix.nodeOrder, i, i+1)
		delete(ix.nodeID, name)
		ix.nodes[id] = nil
		ix.freeNodes = append(ix.freeNodes, id)
	}
	return nil
}

// RemoveVM drops a VM from the configuration (the effect of a stop
// action followed by garbage collection of the Terminated vjob). On a
// shared index it only marks the id absent; otherwise it frees the id
// for reuse.
func (c *Configuration) RemoveVM(name string) {
	id, ok := c.vmOf(name)
	if !ok {
		return
	}
	c.place(id, Waiting, none)
	c.slots[id] = removedSlot
	c.numVMs--
	if !c.shared.Load() {
		ix := c.ix
		i, _ := slices.BinarySearchFunc(ix.vmOrder, name, ix.byVMName)
		ix.vmOrder = slices.Delete(ix.vmOrder, i, i+1)
		delete(ix.vmID, name)
		ix.vms[id] = nil
		ix.freeVMs = append(ix.freeVMs, id)
	}
}

// place records the VM's new state and node, and moves it between the
// node lists when its node changes.
func (c *Configuration) place(id int32, st State, node int32) {
	if old := c.slots[id].node; old != node {
		if old != none {
			at := &c.heads[old]
			for *at != id {
				at = &c.slots[*at].next
			}
			*at = c.slots[id].next
		}
		next := none
		if node != none {
			name := c.ix.vms[id].Name
			at := &c.heads[node]
			for *at >= 0 && c.ix.vms[*at].Name < name {
				at = &c.slots[*at].next
			}
			next, *at = *at, id
		}
		c.slots[id].next = next
	}
	c.slots[id].state, c.slots[id].node = st, node
}

// Node returns the node with the given name, or nil.
func (c *Configuration) Node(name string) *Node {
	if id, ok := c.nodeOf(name); ok {
		return c.ix.nodes[id]
	}
	return nil
}

// VM returns the VM with the given name, or nil.
func (c *Configuration) VM(name string) *VM {
	if id, ok := c.vmOf(name); ok {
		return c.ix.vms[id]
	}
	return nil
}

// Nodes returns the nodes in deterministic (name) order.
func (c *Configuration) Nodes() []*Node {
	return c.AppendNodes(make([]*Node, 0, c.numNodes))
}

// AppendNodes appends the nodes to dst in name order, so a caller that
// reuses dst walks the cluster without allocating.
func (c *Configuration) AppendNodes(dst []*Node) []*Node {
	for _, id := range c.ix.nodeOrder {
		if c.heads[id] != gone {
			dst = append(dst, c.ix.nodes[id])
		}
	}
	return dst
}

// VMs returns the VMs in deterministic (name) order.
func (c *Configuration) VMs() []*VM {
	return c.AppendVMs(make([]*VM, 0, c.numVMs))
}

// AppendVMs appends the VMs to dst in name order, so a caller that
// reuses dst walks them without allocating.
func (c *Configuration) AppendVMs(dst []*VM) []*VM {
	for _, id := range c.ix.vmOrder {
		if c.slots[id].state != Terminated {
			dst = append(dst, c.ix.vms[id])
		}
	}
	return dst
}

// NumNodes returns the number of registered nodes.
func (c *Configuration) NumNodes() int { return c.numNodes }

// NumVMs returns the number of registered VMs.
func (c *Configuration) NumVMs() int { return c.numVMs }

// SetRunning places the VM in the Running state on the given node.
func (c *Configuration) SetRunning(vm, node string) error {
	id, n, err := c.check(vm, node)
	if err != nil {
		return err
	}
	c.place(id, Running, n)
	return nil
}

// SetSleeping places the VM in the Sleeping state with its suspended
// image stored on the given node.
func (c *Configuration) SetSleeping(vm, node string) error {
	id, n, err := c.check(vm, node)
	if err != nil {
		return err
	}
	c.place(id, Sleeping, n)
	return nil
}

// SetWaiting moves the VM back to the Waiting state (no location).
func (c *Configuration) SetWaiting(vm string) error {
	id, ok := c.vmOf(vm)
	if !ok {
		return fmt.Errorf("vjob: unknown VM %q", vm)
	}
	c.place(id, Waiting, none)
	return nil
}

func (c *Configuration) check(vm, node string) (int32, int32, error) {
	id, ok := c.vmOf(vm)
	if !ok {
		return 0, 0, fmt.Errorf("vjob: unknown VM %q", vm)
	}
	n, ok := c.nodeOf(node)
	if !ok {
		return 0, 0, fmt.Errorf("vjob: unknown node %q", node)
	}
	return id, n, nil
}

// slotOf returns the VM's slot; an unknown VM's is Terminated.
func (c *Configuration) slotOf(vm string) slot {
	if id, ok := c.ix.vmID[vm]; ok {
		return c.slots[id]
	}
	return removedSlot
}

// nodeName returns the name of node id n, "" for none.
func (c *Configuration) nodeName(n int32) string {
	if n == none {
		return ""
	}
	return c.ix.nodes[n].Name
}

// StateOf returns the state of the VM. Unknown VMs are Terminated.
func (c *Configuration) StateOf(vm string) State { return c.slotOf(vm).state }

// HostOf returns the node hosting the running VM, or "" when the VM is
// not running.
func (c *Configuration) HostOf(vm string) string {
	if s := c.slotOf(vm); s.state == Running {
		return c.nodeName(s.node)
	}
	return ""
}

// ImageHostOf returns the node storing the sleeping VM's image, or ""
// when the VM is not sleeping.
func (c *Configuration) ImageHostOf(vm string) string {
	if s := c.slotOf(vm); s.state == Sleeping {
		return c.nodeName(s.node)
	}
	return ""
}

// LocationOf returns the placement of the VM regardless of state
// (hosting node when running, image node when sleeping, "" otherwise).
func (c *Configuration) LocationOf(vm string) string { return c.nodeName(c.slotOf(vm).node) }

// RunningOn returns the VMs running on the named node, in name order.
func (c *Configuration) RunningOn(node string) []*VM { return c.placedOn(nil, node, Running) }

// AppendRunningOn appends RunningOn(node) to dst.
func (c *Configuration) AppendRunningOn(dst []*VM, node string) []*VM {
	return c.placedOn(dst, node, Running)
}

// SleepingOn returns the VMs whose suspended image lies on the node.
func (c *Configuration) SleepingOn(node string) []*VM { return c.placedOn(nil, node, Sleeping) }

func (c *Configuration) placedOn(dst []*VM, node string, s State) []*VM {
	n, ok := c.nodeOf(node)
	if !ok {
		return dst
	}
	for id := c.heads[n]; id >= 0; id = c.slots[id].next {
		if c.slots[id].state == s {
			dst = append(dst, c.ix.vms[id])
		}
	}
	return dst
}

// AppendDangling appends to dst, in name order, the VMs whose location
// (LocationOf) names a node absent from the configuration. It walks the
// VM ids and hashes no name.
func (c *Configuration) AppendDangling(dst []*VM) []*VM {
	for _, id := range c.ix.vmOrder {
		if n := c.slots[id].node; n != none && c.heads[n] == gone {
			dst = append(dst, c.ix.vms[id])
		}
	}
	return dst
}

// InState returns the VMs currently in the given state, in name order.
func (c *Configuration) InState(s State) []*VM {
	var out []*VM
	if s == Terminated {
		return out // a Terminated slot holds no VM
	}
	for _, id := range c.ix.vmOrder {
		if c.slots[id].state == s {
			out = append(out, c.ix.vms[id])
		}
	}
	return out
}

// Used returns the per-dimension demand of the VMs running on the
// node, summed from the node's own list at the time of the call.
func (c *Configuration) Used(node string) resources.Vector {
	n, ok := c.nodeOf(node)
	if !ok {
		return resources.Vector{}
	}
	return c.used(n)
}

// AppendUsage appends the usage of every node, in Nodes order, to dst:
// what Used returns for each, summed by id with no name lookup, so a
// caller that reuses dst walks the cluster's load without allocating.
func (c *Configuration) AppendUsage(dst []resources.Vector) []resources.Vector {
	for _, id := range c.ix.nodeOrder {
		if c.heads[id] != gone {
			dst = append(dst, c.used(id))
		}
	}
	return dst
}

func (c *Configuration) used(n int32) resources.Vector {
	var sum resources.Vector
	for id := c.heads[n]; id >= 0; id = c.slots[id].next {
		if c.slots[id].state == Running {
			sum = sum.Add(c.ix.vms[id].Demand)
		}
	}
	return sum
}

// Free returns the node's remaining resources per dimension (zero for
// unknown nodes).
func (c *Configuration) Free(node string) resources.Vector {
	n, ok := c.nodeOf(node)
	if !ok {
		return resources.Vector{}
	}
	return c.ix.nodes[n].Capacity.Sub(c.used(n))
}

// Fits reports whether the VM's demands fit in the node's current free
// resources, on every dimension.
func (c *Configuration) Fits(v *VM, node string) bool {
	return v.Demand.Fits(c.Free(node))
}

// Clone returns a copy of the placement and state mapping: the two
// flat slices, with the index shared copy-on-write. Node and VM objects
// are shared: they are immutable from the planner's point of view.
func (c *Configuration) Clone() *Configuration { return c.CloneInto(nil) }

// CloneInto is Clone into dst's storage: dst becomes a copy of c that
// keeps the capacity of its own slot and head slices and shares c's
// index copy-on-write. A nil dst is a new configuration. What dst held
// is gone, so nothing else may still read it.
func (c *Configuration) CloneInto(dst *Configuration) *Configuration {
	if !c.shared.Load() {
		c.shared.Store(true)
	}
	if dst == nil {
		dst = new(Configuration)
	}
	dst.ix = c.ix
	dst.slots = append(dst.slots[:0], c.slots...)
	dst.heads = append(dst.heads[:0], c.heads...)
	dst.numNodes, dst.numVMs = c.numNodes, c.numVMs
	dst.shared.Store(true)
	return dst
}

// Equal reports whether the two configurations have the same nodes,
// VMs, states and placements.
func (c *Configuration) Equal(o *Configuration) bool {
	if c.numNodes != o.numNodes || c.numVMs != o.numVMs {
		return false
	}
	for _, id := range c.ix.nodeOrder {
		if c.heads[id] != gone && o.Node(c.ix.nodes[id].Name) == nil {
			return false
		}
	}
	for _, id := range c.ix.vmOrder {
		if s := c.slots[id]; s.state != Terminated {
			// An absent VM's slot is Terminated, so it differs too.
			t := o.slotOf(c.ix.vms[id].Name)
			if s.state != t.state || c.nodeName(s.node) != o.nodeName(t.node) {
				return false
			}
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
