package vjob

import "fmt"

// Extract builds the sub-configuration induced by the given node and VM
// names: the listed nodes with their capacities, and the listed VMs
// with their current state and placement. Node and VM objects are
// shared with the parent (the planner treats them as immutable, exactly
// like Clone). Extract is the entry point of the partitioned optimizer:
// each partition solves an Extract-ed slice of the cluster and Rebase
// folds the per-partition outcomes back together.
//
// It returns an error when a name is unknown or when a listed VM is
// placed on a node outside the extracted set — such a VM belongs to
// another partition and extracting it here would break the placement
// invariant.
func (c *Configuration) Extract(nodes, vms []string) (*Configuration, error) {
	out := NewConfiguration()
	for _, name := range nodes {
		n := c.nodes[name]
		if n == nil {
			return nil, fmt.Errorf("vjob: extract references unknown node %q", name)
		}
		out.AddNode(n)
	}
	for _, name := range vms {
		v := c.vms[name]
		if v == nil {
			return nil, fmt.Errorf("vjob: extract references unknown VM %q", name)
		}
		out.AddVM(v)
		switch s := c.slots[name]; s.state {
		case Running:
			if err := out.SetRunning(name, s.node); err != nil {
				return nil, fmt.Errorf("vjob: extract: %s hosted outside the node set: %w", name, err)
			}
		case Sleeping:
			if err := out.SetSleeping(name, s.node); err != nil {
				return nil, fmt.Errorf("vjob: extract: %s imaged outside the node set: %w", name, err)
			}
		}
	}
	return out, nil
}

// Rebase folds the outcome of a sub-problem back into the receiver:
// for every VM of src (the extracted sub-configuration a partition
// started from), the receiver takes the state and placement the VM has
// in dst; VMs of src that no longer exist in dst were terminated and
// are removed. Nodes, and VMs outside src, are untouched, so disjoint
// partitions can be rebased in any order.
func (c *Configuration) Rebase(src, dst *Configuration) error {
	for _, name := range src.vmOrder {
		if dst.vms[name] == nil {
			c.RemoveVM(name)
			continue
		}
		if c.vms[name] == nil {
			return fmt.Errorf("vjob: rebase of VM %q unknown to the base configuration", name)
		}
		switch s := dst.slots[name]; s.state {
		case Running:
			if err := c.SetRunning(name, s.node); err != nil {
				return err
			}
		case Sleeping:
			if err := c.SetSleeping(name, s.node); err != nil {
				return err
			}
		case Waiting:
			if err := c.SetWaiting(name); err != nil {
				return err
			}
		}
	}
	return nil
}
