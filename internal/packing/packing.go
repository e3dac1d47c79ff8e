// Package packing provides the placement heuristic and the knapsack
// reasoning the paper relies on: the First-Fit-Decrease heuristic used
// by the sample decision module (§3.2) and by the baseline planner of
// the §5.1 evaluation, and a dynamic-programming subset-sum bound in
// the spirit of Trick's knapsack propagation (§4.3) used by the
// constraint solver.
package packing

import (
	"fmt"
	"sort"

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

// SortDecreasing orders VMs by decreasing memory demand, then
// decreasing CPU demand, then name — the FFD ordering of §3.2. The
// slice is sorted in place and returned for chaining.
func SortDecreasing(vms []*vjob.VM) []*vjob.VM {
	sort.SliceStable(vms, func(i, j int) bool {
		if vms[i].MemoryDemand() != vms[j].MemoryDemand() {
			return vms[i].MemoryDemand() > vms[j].MemoryDemand()
		}
		if vms[i].CPUDemand() != vms[j].CPUDemand() {
			return vms[i].CPUDemand() > vms[j].CPUDemand()
		}
		return vms[i].Name < vms[j].Name
	})
	return vms
}

// SortByDominantShare orders VMs by decreasing dominant-resource score
// — each VM's largest per-dimension share of the cluster capacity —
// breaking ties by the §3.2 (memory, CPU, name) ordering. On
// heterogeneous multi-dimensional workloads the score keeps a
// net-hungry VM ahead of a slightly larger-in-memory compute VM, which
// is what makes first-fit competitive across dimensions (DRF-style
// packing). The slice is sorted in place and returned for chaining.
func SortByDominantShare(total resources.Vector, vms []*vjob.VM) []*vjob.VM {
	sort.SliceStable(vms, func(i, j int) bool {
		si, sj := vms[i].Demand.DominantShare(total), vms[j].Demand.DominantShare(total)
		if si != sj {
			return si > sj
		}
		if vms[i].MemoryDemand() != vms[j].MemoryDemand() {
			return vms[i].MemoryDemand() > vms[j].MemoryDemand()
		}
		if vms[i].CPUDemand() != vms[j].CPUDemand() {
			return vms[i].CPUDemand() > vms[j].CPUDemand()
		}
		return vms[i].Name < vms[j].Name
	})
	return vms
}

// orderForPacking picks the decreasing order for a packing pass: the
// paper's (memory, CPU) ordering on pure 2-D instances — bit-for-bit
// the published FFD — and the weighted dominant-resource score as soon
// as any node or VM uses an extra dimension.
func orderForPacking(c *vjob.Configuration, vms []*vjob.VM) []*vjob.VM {
	ordered := append([]*vjob.VM(nil), vms...)
	var total resources.Vector
	multi := false
	for _, n := range c.Nodes() {
		total = total.Add(n.Capacity)
		multi = multi || n.Capacity.HasExtra()
	}
	if !multi {
		for _, v := range vms {
			if v.Demand.HasExtra() {
				multi = true
				break
			}
		}
	}
	if multi {
		return SortByDominantShare(total, ordered)
	}
	return SortDecreasing(ordered)
}

// FirstFitDecrease places every VM of vms as Running in c using the
// First Fit Decrease heuristic: VMs are considered in decreasing order
// — (memory, CPU) on 2-D instances, dominant-resource score when extra
// dimensions are in play — and assigned to the first node with
// sufficient free resources on every dimension. The configuration is
// mutated; on failure it is left untouched and an ErrNoFit is
// returned. Free resources are tracked incrementally in one map, so
// each candidate node costs one vector comparison.
func FirstFitDecrease(c *vjob.Configuration, vms []*vjob.VM) error {
	ordered := orderForPacking(c, vms)
	free := c.FreeResources()
	nodes := c.Nodes()
	assigned := make(map[string]string, len(vms))
	for _, v := range ordered {
		placed := false
		for _, n := range nodes {
			if v.Demand.Fits(free[n.Name]) {
				free[n.Name] = free[n.Name].Sub(v.Demand)
				assigned[v.Name] = n.Name
				placed = true
				break
			}
		}
		if !placed {
			return ErrNoFit{VM: v}
		}
		creditOldHost(c, v, free)
	}
	return commit(c, assigned, vms)
}

// creditOldHost returns the resources a just-re-placed VM was consuming
// on its current host to the free pool: the commit will move it, so
// later VMs of the same pass may use the space (the behavior of the
// former clone-based implementation).
func creditOldHost(c *vjob.Configuration, v *vjob.VM, free map[string]resources.Vector) {
	if host := c.HostOf(v.Name); host != "" {
		free[host] = free[host].Add(v.Demand)
	}
}

// commit applies the computed placements to c.
func commit(c *vjob.Configuration, assigned map[string]string, vms []*vjob.VM) error {
	for _, v := range vms {
		if err := c.SetRunning(v.Name, assigned[v.Name]); err != nil {
			return err
		}
	}
	return nil
}

// MaxReachableLoad returns the largest subset-sum of weights that does
// not exceed cap, computed with the dynamic-programming reachability
// of Trick's knapsack propagation. The solver uses it to bound the
// load a node can still accept: a partial packing whose reachable
// loads cannot absorb the remaining mandatory demand is dead and can
// be pruned.
func MaxReachableLoad(cap int, weights []int) int {
	if cap <= 0 {
		return 0
	}
	// Bitset DP: bit i set <=> load i reachable.
	words := cap/64 + 1
	reach := make([]uint64, words)
	reach[0] = 1
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		if w > cap {
			continue
		}
		shiftOrInto(reach, w, cap)
	}
	for i := cap; i >= 0; i-- {
		if reach[i/64]&(1<<uint(i%64)) != 0 {
			return i
		}
	}
	return 0
}

// shiftOrInto performs reach |= reach << w, truncated to cap+1 bits.
func shiftOrInto(reach []uint64, w, cap int) {
	words := len(reach)
	wordShift := w / 64
	bitShift := uint(w % 64)
	for i := words - 1; i >= 0; i-- {
		var v uint64
		if i-wordShift >= 0 {
			v = reach[i-wordShift] << bitShift
			if bitShift > 0 && i-wordShift-1 >= 0 {
				v |= reach[i-wordShift-1] >> (64 - bitShift)
			}
		}
		reach[i] |= v
	}
	// Mask bits above cap.
	last := cap / 64
	reach[last] &= (1 << uint(cap%64+1)) - 1
	for i := last + 1; i < words; i++ {
		reach[i] = 0
	}
}
