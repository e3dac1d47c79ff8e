package workload

import (
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// Profile classifies what a vjob is bound on beyond CPU and memory.
// The paper's NGB gangs are compute-bound; the multi-resource model
// adds network-bound vjobs (data-intensive exchanges saturating the
// NIC long before the CPU) and disk-bound vjobs (checkpoint/scan
// loads saturating storage throughput), so experiments can build
// heterogeneous clusters where CPU+memory packing alone over-commits
// another dimension.
type Profile int

const (
	// ComputeBound is the paper's workload: CPU and memory demands
	// only. The zero value, so existing call sites are unchanged.
	ComputeBound Profile = iota
	// NetBound vjobs stream data: every VM holds a large slice of the
	// node NIC while computing little.
	NetBound
	// DiskBound vjobs hammer storage: every VM holds a large slice of
	// the node's disk throughput.
	DiskBound
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case NetBound:
		return "net-bound"
	case DiskBound:
		return "disk-bound"
	default:
		return "compute-bound"
	}
}

// Per-VM extra demands of the bound profiles. Sized against the
// DefaultMultiResNode capacities: four net-bound or four disk-bound
// VMs saturate their dimension on one node, while their CPU/memory
// footprint leaves room for twice that — the imbalance that makes a
// 2-D packer over-commit.
const (
	// DefaultNodeNet is the reference node NIC capacity in Mbit/s.
	DefaultNodeNet = 1000
	// DefaultNodeDisk is the reference node storage throughput in
	// MiB/s.
	DefaultNodeDisk = 600
	// NetBoundBandwidth is one net-bound VM's NIC demand in Mbit/s.
	NetBoundBandwidth = 250
	// NetBoundDisk is the light storage demand of a net-bound VM.
	NetBoundDisk = 10
	// DiskBoundThroughput is one disk-bound VM's storage demand in
	// MiB/s.
	DiskBoundThroughput = 150
	// DiskBoundBandwidth is the light NIC demand of a disk-bound VM.
	DiskBoundBandwidth = 25
)

// ExtraDemand returns the profile's per-VM demand on the extra
// dimensions (zero vector for ComputeBound).
func (p Profile) ExtraDemand() resources.Vector {
	var v resources.Vector
	switch p {
	case NetBound:
		v.Set(resources.NetBW, NetBoundBandwidth)
		v.Set(resources.DiskIO, NetBoundDisk)
	case DiskBound:
		v.Set(resources.DiskIO, DiskBoundThroughput)
		v.Set(resources.NetBW, DiskBoundBandwidth)
	}
	return v
}

// Apply stamps the profile's extra demands onto every VM of the vjob.
func (p Profile) Apply(j *vjob.VJob) {
	extra := p.ExtraDemand()
	if extra.IsZero() {
		return
	}
	for _, v := range j.VMs {
		v.Demand = v.Demand.Add(extra)
	}
}
