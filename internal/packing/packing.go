// Package packing provides the placement heuristic the paper relies
// on: the First-Fit-Decrease heuristic used by the sample decision
// module (§3.2) and by the baseline planner of the §5.1 evaluation.
package packing

import (
	"fmt"
	"slices"
	"strings"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// ErrNoFit is wrapped by placement errors when a VM fits on no node.
type ErrNoFit struct {
	// VM is the machine that could not be placed.
	VM *vjob.VM
}

// Error describes the unplaceable VM.
func (e ErrNoFit) Error() string {
	return fmt.Sprintf("packing: no node can host %s", e.VM)
}

// decreasing is the §3.2 order: memory, then CPU, then name.
func decreasing(a, b *vjob.VM) bool {
	if a.MemoryDemand() != b.MemoryDemand() {
		return a.MemoryDemand() > b.MemoryDemand()
	}
	if a.CPUDemand() != b.CPUDemand() {
		return a.CPUDemand() > b.CPUDemand()
	}
	return a.Name < b.Name
}

// dominantFirst orders by decreasing dominant share of total — each
// VM's largest per-dimension share of the cluster capacity — then as
// decreasing. On heterogeneous workloads the score keeps a net-hungry
// VM ahead of a slightly larger-in-memory compute VM, which is what
// makes first fit competitive across dimensions (DRF-style packing).
func dominantFirst(total resources.Vector, a, b *vjob.VM) bool {
	if sa, sb := a.Demand.DominantShare(total), b.Demand.DominantShare(total); sa != sb {
		return sa > sb
	}
	return decreasing(a, b)
}

// FirstFit is the First-Fit state of one packing pass: a cluster's
// nodes in name order and the free vector of each, by index. Placing a
// VM scans the free vectors from the first node; the space a caller
// reserves, undoes or releases is added or taken at one index.
type FirstFit struct {
	nodes []*vjob.Node
	free  []resources.Vector
	// total and multi are what the packing order needs from the nodes:
	// their summed capacity and whether any has an extra dimension.
	total resources.Vector
	multi bool

	order, hosts []int // Pack's scratch
}

// NewFirstFit returns the state of an empty cluster made of the nodes,
// which must be in name order, as Configuration.Nodes returns them.
func NewFirstFit(nodes []*vjob.Node) *FirstFit { return new(FirstFit).Reset(nodes) }

// Reset makes f the state of an empty cluster made of the nodes, as
// NewFirstFit does, in the storage f holds.
func (f *FirstFit) Reset(nodes []*vjob.Node) *FirstFit {
	f.nodes, f.free, f.total, f.multi = nodes, slices.Grow(f.free[:0], len(nodes))[:len(nodes)], resources.Vector{}, false
	for i, n := range nodes {
		f.free[i] = n.Capacity
		f.total = f.total.Add(n.Capacity)
		f.multi = f.multi || n.Capacity.HasExtra()
	}
	return f
}

// Reserve takes the demand from the named node's free space whether or
// not it fits there: a VM that already holds its place.
func (f *FirstFit) Reserve(node string, demand resources.Vector) {
	i := f.index(node)
	f.free[i] = f.free[i].Sub(demand)
}

// release returns the demand to the named node's free space.
func (f *FirstFit) release(node string, demand resources.Vector) {
	i := f.index(node)
	f.free[i] = f.free[i].Add(demand)
}

// index returns the position of the named node; it panics on a node
// the state was not built with.
func (f *FirstFit) index(node string) int {
	i, ok := slices.BinarySearchFunc(f.nodes, node, func(n *vjob.Node, name string) int {
		return strings.Compare(n.Name, name)
	})
	if !ok {
		panic(fmt.Sprintf("packing: unknown node %q", node))
	}
	return i
}

// place takes the demand from the first node whose free space covers
// it on every dimension and returns that node's index, or -1.
func (f *FirstFit) place(demand resources.Vector) int {
	for i := range f.free {
		if demand.Fits(f.free[i]) {
			f.free[i] = f.free[i].Sub(demand)
			return i
		}
	}
	return -1
}

// sort returns the positions of vms in packing order: the paper's
// (memory, CPU) order on pure 2-D instances — bit-for-bit the published
// FFD — and the weighted dominant-resource score as soon as any node or
// VM uses an extra dimension. The slice is f's scratch.
func (f *FirstFit) sort(vms []*vjob.VM) []int {
	multi := f.multi
	for _, v := range vms {
		multi = multi || v.Demand.HasExtra()
	}
	f.order = f.order[:0]
	for k := range vms {
		f.order = append(f.order, k)
	}
	less := decreasing
	if multi {
		less = func(a, b *vjob.VM) bool { return dominantFirst(f.total, a, b) }
	}
	slices.SortStableFunc(f.order, func(i, j int) int {
		switch {
		case less(vms[i], vms[j]):
			return -1
		case less(vms[j], vms[i]):
			return 1
		}
		return 0
	})
	return f.order
}

// Pack places every VM of vms, in packing order, on the first node with
// room for it, and reports whether all of them found one. When one does
// not fit, the placements of the call are undone and the state is as
// Pack found it.
func (f *FirstFit) Pack(vms []*vjob.VM) bool {
	order := f.sort(vms)
	f.hosts = slices.Grow(f.hosts[:0], len(vms))[:len(vms)]
	for n, k := range order {
		if f.hosts[k] = f.place(vms[k].Demand); f.hosts[k] < 0 {
			for _, k := range order[:n] {
				f.free[f.hosts[k]] = f.free[f.hosts[k]].Add(vms[k].Demand)
			}
			return false
		}
	}
	return true
}

// Host returns the node the last successful Pack put vms[k] on.
func (f *FirstFit) Host(k int) *vjob.Node { return f.nodes[f.hosts[k]] }

// FirstFitDecrease places every VM of vms as Running in c using the
// First Fit Decrease heuristic: VMs are considered in decreasing order
// — (memory, CPU) on 2-D instances, dominant-resource score when extra
// dimensions are in play — and assigned to the first node with
// sufficient free resources on every dimension. The configuration is
// mutated; on failure it is left untouched and an ErrNoFit is
// returned. Free space lives in a FirstFit, one vector per node by
// index, so each candidate node costs one vector comparison; a VM
// re-placed from a node of c gives that node its space back for the
// VMs after it.
func FirstFitDecrease(c *vjob.Configuration, vms []*vjob.VM) error {
	f := NewFirstFit(c.Nodes())
	for i, n := range f.nodes {
		f.free[i] = f.free[i].Sub(c.Used(n.Name))
	}
	hosts := make([]int, len(vms))
	for _, k := range f.sort(vms) {
		v := vms[k]
		if hosts[k] = f.place(v.Demand); hosts[k] < 0 {
			return ErrNoFit{VM: v}
		}
		if host := c.HostOf(v.Name); host != "" {
			f.release(host, v.Demand)
		}
	}
	for k, v := range vms {
		if err := c.SetRunning(v.Name, f.nodes[hosts[k]].Name); err != nil {
			return err
		}
	}
	return nil
}
