package packing

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cwcs/internal/resources"
	"cwcs/internal/vjob"
	"cwcs/internal/workload"
)

// The functions below are First-Fit-Decrease as it was before FirstFit
// held its free space in a dense vector per node: one whole-cluster
// free map and a string lookup per candidate node. They are kept
// verbatim as the reference the dense pass must match.

// SortDecreasing orders VMs by decreasing memory demand, then
// decreasing CPU demand, then name — the FFD ordering of §3.2. The
// slice is sorted in place and returned for chaining.
func SortDecreasing(vms []*vjob.VM) []*vjob.VM {
	sort.SliceStable(vms, func(i, j int) bool { return decreasing(vms[i], vms[j]) })
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
	sort.SliceStable(vms, func(i, j int) bool { return dominantFirst(total, vms[i], vms[j]) })
	return vms
}

func refOrderForPacking(c *vjob.Configuration, vms []*vjob.VM) []*vjob.VM {
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

func refFirstFitDecrease(c *vjob.Configuration, vms []*vjob.VM) error {
	ordered := refOrderForPacking(c, vms)
	free := freeResources(c)
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
		refCreditOldHost(c, v, free)
	}
	return refCommit(c, assigned, vms)
}

func refCreditOldHost(c *vjob.Configuration, v *vjob.VM, free map[string]resources.Vector) {
	if host := c.HostOf(v.Name); host != "" {
		free[host] = free[host].Add(v.Demand)
	}
}

func refCommit(c *vjob.Configuration, assigned map[string]string, vms []*vjob.VM) error {
	for _, v := range vms {
		if err := c.SetRunning(v.Name, assigned[v.Name]); err != nil {
			return err
		}
	}
	return nil
}

// mixOptions returns the generator options of one of the three mixes
// the differential tests cover: the paper's 2-D cluster, a 4-D cluster
// with net- and disk-bound vjobs, and a GigE cluster with NIC-poor
// nodes.
func mixOptions(mix, nodes int) workload.GenerateOptions {
	opts := workload.GenerateOptions{Nodes: nodes, NodeCPU: 2, NodeMemory: 4096, VMs: nodes * 3 / 2}
	switch mix % 3 {
	case 1:
		opts.NodeNet, opts.NodeDisk = 1000, 400
		opts.NetFraction, opts.DiskFraction = 0.3, 0.3
	case 2:
		opts.NodeNet, opts.NICPoorNet, opts.NICPoorFraction = 1000, 100, 0.25
		opts.NetFraction = 0.3
	}
	return opts
}

// ffdCase packs one generated instance with both implementations and
// returns a description of the first difference, or "", and whether
// the packing failed.
func ffdCase(seed int64) (diff string, failed bool) {
	rng := rand.New(rand.NewSource(seed))
	g := workload.GenerateConfiguration(rng, mixOptions(int(seed), 2+rng.Intn(40)))
	// Either every VM re-packed in place — running ones free their
	// host for the VMs after them — or the VMs of a few vjobs packed
	// onto an empty copy of the nodes, as the FFD baseline does.
	src := g.Cfg
	var vms []*vjob.VM
	if rng.Intn(2) == 0 {
		vms = src.VMs()
		rng.Shuffle(len(vms), func(i, j int) { vms[i], vms[j] = vms[j], vms[i] })
		vms = vms[:rng.Intn(len(vms)+1)]
	} else {
		src = vjob.NewConfiguration()
		for _, n := range g.Cfg.Nodes() {
			src.AddNode(n)
		}
		for _, j := range g.Jobs {
			if rng.Intn(3) > 0 {
				for _, v := range j.VMs {
					src.AddVM(v)
					vms = append(vms, v)
				}
			}
		}
	}
	ref, got := src.Clone(), src.Clone()
	errRef := refFirstFitDecrease(ref, append([]*vjob.VM(nil), vms...))
	errGot := FirstFitDecrease(got, append([]*vjob.VM(nil), vms...))
	var nfRef, nfGot ErrNoFit
	switch {
	case (errRef == nil) != (errGot == nil):
		diff = fmt.Sprintf("errors differ: reference %v, got %v", errRef, errGot)
	case errRef != nil && (!errors.As(errRef, &nfRef) || !errors.As(errGot, &nfGot) || nfRef.VM != nfGot.VM):
		diff = fmt.Sprintf("errors differ: reference %v, got %v", errRef, errGot)
	case ref.String() != got.String():
		diff = fmt.Sprintf("placements differ:\nreference:\n%s\ngot:\n%s", ref, got)
	}
	return diff, errRef != nil
}

// TestFirstFitMatchesReference: on 600 generated instances of the three
// mixes, FirstFitDecrease places every VM where the reference does and
// fails on the same VM.
func TestFirstFitMatchesReference(t *testing.T) {
	failed := 0
	for seed := int64(0); seed < 600; seed++ {
		diff, nofit := ffdCase(seed)
		if diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		if nofit {
			failed++
		}
	}
	if failed == 0 || failed == 600 {
		t.Fatalf("%d of 600 packings failed: the cases miss a path", failed)
	}
}

// freeResources is the whole-cluster free map, by node name, that
// vjob.Configuration.FreeResources built before the configuration
// stored dense ids; the reference below reads it as it did then.
func freeResources(c *vjob.Configuration) map[string]resources.Vector {
	free := make(map[string]resources.Vector, c.NumNodes())
	for _, n := range c.Nodes() {
		free[n.Name] = c.Free(n.Name)
	}
	return free
}
