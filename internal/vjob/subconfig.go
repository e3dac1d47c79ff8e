package vjob

import (
	"fmt"
	"slices"
	"strings"
)

// Extract builds the sub-configuration induced by the given node and VM
// names: the listed nodes with their capacities, and the listed VMs
// with their current state and placement. Node and VM objects are
// shared with the parent (the planner treats them as immutable, exactly
// like Clone). Extract is the entry point of the partitioned optimizer:
// each partition solves an Extract-ed slice of the cluster and Rebase
// folds the per-partition outcomes back together.
//
// The slice gets an index of its own, built in one presized pass: ids
// in input order, each name list sorted once, and each node's VM list
// linked in name order from the sorted VMs.
//
// It returns an error when a name is unknown or when a listed VM is
// placed on a node outside the extracted set — such a VM belongs to
// another partition and extracting it here would break the placement
// invariant.
func (c *Configuration) Extract(nodes, vms []string) (*Configuration, error) {
	ix := newIndex(len(nodes), len(vms))
	for _, name := range nodes {
		id, ok := c.nodeOf(name)
		if !ok {
			return nil, fmt.Errorf("vjob: extract references unknown node %q", name)
		}
		if _, dup := ix.nodeID[name]; !dup {
			ix.nodeID[name] = int32(len(ix.nodes))
			ix.nodes = append(ix.nodes, c.ix.nodes[id])
		}
	}
	out := &Configuration{ix: ix, slots: make([]slot, 0, len(vms)), heads: make([]int32, len(ix.nodes)), numNodes: len(ix.nodes)}
	for _, name := range vms {
		id, ok := c.vmOf(name)
		if !ok {
			return nil, fmt.Errorf("vjob: extract references unknown VM %q", name)
		}
		if _, dup := ix.vmID[name]; dup {
			continue
		}
		s := slot{state: c.slots[id].state, node: none, next: none}
		if n := c.slots[id].node; n != none {
			node := c.nodeName(n)
			if s.node, ok = ix.nodeID[node]; !ok {
				where := "hosted"
				if s.state == Sleeping {
					where = "imaged"
				}
				return nil, fmt.Errorf("vjob: extract: %s %s outside the node set: vjob: unknown node %q", name, where, node)
			}
		}
		ix.vmID[name] = int32(len(ix.vms))
		ix.vms = append(ix.vms, c.ix.vms[id])
		out.slots = append(out.slots, s)
	}
	out.numVMs = len(ix.vms)
	ix.nodeOrder = sortedIDs(len(ix.nodes), func(id int32) string { return ix.nodes[id].Name })
	ix.vmOrder = sortedIDs(len(ix.vms), func(id int32) string { return ix.vms[id].Name })
	// Every node list in name order: walking the VMs backwards, each
	// goes on the front of its node's list.
	for i := range out.heads {
		out.heads[i] = none
	}
	for _, id := range slices.Backward(ix.vmOrder) {
		if n := out.slots[id].node; n != none {
			out.slots[id].next, out.heads[n] = out.heads[n], id
		}
	}
	return out, nil
}

// sortedIDs returns the ids 0..n-1 ordered by name.
func sortedIDs(n int, name func(int32) string) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int { return strings.Compare(name(a), name(b)) })
	return ids
}

// Rebase folds the outcome of a sub-problem back into the receiver:
// for every VM of src (the extracted sub-configuration a partition
// started from), the receiver takes the state and placement the VM has
// in dst; VMs of src that no longer exist in dst were terminated and
// are removed. Nodes, and VMs outside src, are untouched, so disjoint
// partitions can be rebased in any order.
func (c *Configuration) Rebase(src, dst *Configuration) error {
	for _, id := range src.ix.vmOrder {
		if src.slots[id].state == Terminated {
			continue
		}
		name := src.ix.vms[id].Name
		var to slot
		if dst.ix == src.ix { // dst derives from src: same ids
			to = dst.slots[id]
		} else {
			to = dst.slotOf(name)
		}
		if to.state == Terminated {
			c.RemoveVM(name)
			continue
		}
		vm, ok := c.vmOf(name)
		if !ok {
			return fmt.Errorf("vjob: rebase of VM %q unknown to the base configuration", name)
		}
		node := none
		if to.node != none {
			var ok bool
			if node, ok = c.nodeOf(dst.nodeName(to.node)); !ok {
				return fmt.Errorf("vjob: unknown node %q", dst.nodeName(to.node))
			}
		}
		c.place(vm, to.state, node)
	}
	return nil
}
