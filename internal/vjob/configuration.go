package vjob

import (
	"fmt"
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
type Configuration struct {
	nodes map[string]*Node
	vms   map[string]*VM

	state     map[string]State  // VM name -> state
	placement map[string]string // VM name -> node name (running host or image host)

	nodeOrder []string // sorted node names, for deterministic iteration
	vmOrder   []string // sorted VM names
}

// NewConfiguration returns an empty configuration.
func NewConfiguration() *Configuration {
	return &Configuration{
		nodes:     make(map[string]*Node),
		vms:       make(map[string]*VM),
		state:     make(map[string]State),
		placement: make(map[string]string),
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
	c.vms[v.Name] = v
	c.state[v.Name] = Waiting
	delete(c.placement, v.Name)
}

// RemoveNode drops a node from the configuration (the effect of taking
// an evacuated node offline for maintenance). It refuses while any VM
// is still placed on the node — running guests or sleeping images must
// be moved first, or their placements would dangle.
func (c *Configuration) RemoveNode(name string) error {
	if _, ok := c.nodes[name]; !ok {
		return fmt.Errorf("vjob: unknown node %q", name)
	}
	for vm, loc := range c.placement {
		if loc == name {
			return fmt.Errorf("vjob: node %s still holds %s (%v)", name, vm, c.state[vm])
		}
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
	delete(c.vms, name)
	delete(c.state, name)
	delete(c.placement, name)
	i := sort.SearchStrings(c.vmOrder, name)
	if i < len(c.vmOrder) && c.vmOrder[i] == name {
		c.vmOrder = append(c.vmOrder[:i], c.vmOrder[i+1:]...)
	}
}

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
	out := make([]*Node, 0, len(c.nodeOrder))
	for _, n := range c.nodeOrder {
		out = append(out, c.nodes[n])
	}
	return out
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
	c.state[vm] = Running
	c.placement[vm] = node
	return nil
}

// SetSleeping places the VM in the Sleeping state with its suspended
// image stored on the given node.
func (c *Configuration) SetSleeping(vm, node string) error {
	if err := c.check(vm, node); err != nil {
		return err
	}
	c.state[vm] = Sleeping
	c.placement[vm] = node
	return nil
}

// SetWaiting moves the VM back to the Waiting state (no location).
func (c *Configuration) SetWaiting(vm string) error {
	if _, ok := c.vms[vm]; !ok {
		return fmt.Errorf("vjob: unknown VM %q", vm)
	}
	c.state[vm] = Waiting
	delete(c.placement, vm)
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
	s, ok := c.state[vm]
	if !ok {
		return Terminated
	}
	return s
}

// HostOf returns the node hosting the running VM, or "" when the VM is
// not running.
func (c *Configuration) HostOf(vm string) string {
	if c.state[vm] != Running {
		return ""
	}
	return c.placement[vm]
}

// ImageHostOf returns the node storing the sleeping VM's image, or ""
// when the VM is not sleeping.
func (c *Configuration) ImageHostOf(vm string) string {
	if c.state[vm] != Sleeping {
		return ""
	}
	return c.placement[vm]
}

// LocationOf returns the placement of the VM regardless of state
// (hosting node when running, image node when sleeping, "" otherwise).
func (c *Configuration) LocationOf(vm string) string { return c.placement[vm] }

// RunningOn returns the VMs running on the named node, in name order.
func (c *Configuration) RunningOn(node string) []*VM {
	var out []*VM
	for _, name := range c.vmOrder {
		if c.state[name] == Running && c.placement[name] == node {
			out = append(out, c.vms[name])
		}
	}
	return out
}

// SleepingOn returns the VMs whose suspended image lies on the node.
func (c *Configuration) SleepingOn(node string) []*VM {
	var out []*VM
	for _, name := range c.vmOrder {
		if c.state[name] == Sleeping && c.placement[name] == node {
			out = append(out, c.vms[name])
		}
	}
	return out
}

// InState returns the VMs currently in the given state, in name order.
func (c *Configuration) InState(s State) []*VM {
	var out []*VM
	for _, name := range c.vmOrder {
		if c.state[name] == s {
			out = append(out, c.vms[name])
		}
	}
	return out
}

// Used returns the per-dimension demand of the VMs running on the
// node. It rescans the VM set; hot paths use FreeResources instead.
func (c *Configuration) Used(node string) resources.Vector {
	var sum resources.Vector
	for _, v := range c.RunningOn(node) {
		sum = sum.Add(v.Demand)
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
// dimension at once, in one O(nodes + VMs) pass. Hot paths (the FFD
// heuristic, plan pool extraction, the cost model, monitoring) use it
// instead of calling Free per node, which rescans the whole VM set
// each call and turns thousand-node clusters quadratic.
func (c *Configuration) FreeResources() map[string]resources.Vector {
	free := make(map[string]resources.Vector, len(c.nodes))
	for name, n := range c.nodes {
		free[name] = n.Capacity
	}
	for vm, st := range c.state {
		if st != Running {
			continue
		}
		node := c.placement[vm]
		free[node] = free[node].Sub(c.vms[vm].Demand)
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
		state:     make(map[string]State, len(c.state)),
		placement: make(map[string]string, len(c.placement)),
		nodeOrder: append([]string(nil), c.nodeOrder...),
		vmOrder:   append([]string(nil), c.vmOrder...),
	}
	for k, v := range c.nodes {
		out.nodes[k] = v
	}
	for k, v := range c.vms {
		out.vms[k] = v
	}
	for k, v := range c.state {
		out.state[k] = v
	}
	for k, v := range c.placement {
		out.placement[k] = v
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
		if c.state[name] != o.state[name] || c.placement[name] != o.placement[name] {
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
