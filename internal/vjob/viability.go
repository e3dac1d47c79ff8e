package vjob

import (
	"fmt"

	"cwcs/internal/resources"
)

// Violation describes one node whose running VMs over-commit a
// resource, making the configuration non-viable.
type Violation struct {
	// Node is the overloaded node's name.
	Node string
	// Resource is the wire name of the over-committed dimension
	// ("cpu", "memory", "net", "disk").
	Resource string
	// Demand is the aggregated demand of the running VMs.
	Demand int
	// Capacity is the node capacity for the resource.
	Capacity int
}

// Error renders the violation; Violation satisfies the error interface
// so callers can wrap a non-viable configuration into an error chain.
func (v Violation) Error() string {
	return fmt.Sprintf("node %s overloaded on %s: demand %d > capacity %d",
		v.Node, v.Resource, v.Demand, v.Capacity)
}

// Violations returns every capacity violation of the configuration —
// any registered resource dimension on any node — in node then
// dimension order. An empty slice means the configuration is viable:
// every running VM has access to the resources it demands (Section
// 3.2 of the paper, generalized to the multi-dimensional model).
// Waiting and sleeping VMs consume nothing.
//
// Each node's usage is summed from the VMs placed on it (Used), so the
// audit is one O(nodes + VMs) pass over ids that allocates only its
// result.
func (c *Configuration) Violations() []Violation { return c.AppendViolations(nil) }

// AppendViolations appends the violations Violations lists to dst and
// returns it, so a caller that reuses dst audits without allocating.
func (c *Configuration) AppendViolations(dst []Violation) []Violation {
	for _, id := range c.ix.nodeOrder {
		if c.heads[id] == gone {
			continue
		}
		n, u := c.ix.nodes[id], c.used(id)
		for _, k := range resources.Kinds() {
			if u.Get(k) > n.Capacity.Get(k) {
				dst = append(dst, Violation{Node: n.Name, Resource: k.String(), Demand: u.Get(k), Capacity: n.Capacity.Get(k)})
			}
		}
	}
	return dst
}

// Viable reports whether every running VM has access to sufficient
// resources on every dimension. It stops at the first overload and
// allocates nothing.
func (c *Configuration) Viable() bool {
	for _, id := range c.ix.nodeOrder {
		if c.heads[id] != gone && !c.used(id).Fits(c.ix.nodes[id].Capacity) {
			return false
		}
	}
	return true
}

// VJobState derives the state of a vjob from the states of its VMs. A
// vjob is Running (resp. Sleeping, Waiting) when all its VMs are; it is
// Terminated when none of its VMs remain. During a context switch the
// VMs of a vjob may transiently disagree; in that case the function
// returns the state of the majority-progress rule used by the paper's
// monitoring: Running if any VM runs, else Sleeping if any sleeps, else
// Waiting.
func (c *Configuration) VJobState(j *VJob) State {
	if len(j.VMs) == 0 {
		return Terminated
	}
	var counts [Terminated]int // Terminated: the VM is gone
	present := 0
	for _, v := range j.VMs {
		if s := c.StateOf(v.Name); s != Terminated {
			present++
			counts[s]++
		}
	}
	switch {
	case present == 0:
		return Terminated
	case counts[Running] == present:
		return Running
	case counts[Sleeping] == present:
		return Sleeping
	case counts[Waiting] == present:
		return Waiting
	case counts[Running] > 0:
		return Running
	case counts[Sleeping] > 0:
		return Sleeping
	default:
		return Waiting
	}
}
