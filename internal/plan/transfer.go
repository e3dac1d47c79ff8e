package plan

import (
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// This file is the plan-level half of the bandwidth-aware context
// switch model (DESIGN.md §9): what an in-flight transfer weighs on the
// `net` dimension of its endpoints, and how much data an action that
// moves a VM must push. The duration model (internal/duration) owns the
// time side — how long the push takes at a given bandwidth — and
// derives its calibrated per-MiB slopes from the nominal wire rates
// below, so the planner's admission arithmetic and the simulator's
// clock agree.

// Nominal wire rates, in Mbit/s, of the three transfer kinds: the §2.3
// duration calibration's per-MiB slopes, inverted (1 MiB of image is
// modeled as 8 Mbit on the wire; the binary/decimal 4.9% wrinkle is
// ignored):
//
//   - a live migration streams pre-copy rounds at the memory-copy rate
//     the calibrated 0.01 s/MiB corresponds to: 800 Mbit/s — a nearly
//     saturated GigE NIC, which is what the paper's testbed measures;
//   - a remote suspend pushes the image with scp at the disk-bound
//     0.1 s/MiB of the calibration: 80 Mbit/s;
//   - a remote resume pulls at 0.08 s/MiB: 100 Mbit/s.
//
// These are the demands a transfer places on BOTH endpoints' `net`
// dimension while it executes. On a node whose NIC is smaller than the
// rate, the transfer claims the whole NIC (clamping below).
const (
	// MigrateRateMbps is a live migration's nominal wire rate.
	MigrateRateMbps = 800
	// SuspendPushRateMbps is a remote suspend's image-push rate.
	SuspendPushRateMbps = 80
	// ResumePushRateMbps is a remote resume's image-pull rate.
	ResumePushRateMbps = 100
)

// TransferSize returns the data volume, in MiB, that an action moving
// this VM must push across nodes: the memory image (Table 1's Dm) plus
// the transfer-relevant extra dimensions. A VM with a high sustained
// disk rate has a correspondingly larger disk working set riding in
// its suspended image, and a net-chatty VM dirties pages faster during
// a live migration's pre-copy rounds, so both extra demands fold into
// the moved volume. The fold is deliberately unit-loose — §4.2 costs
// are an ordering, not a byte count — and vanishes on the paper's 2-D
// instances: with zero extra demands TransferSize is exactly
// MemoryDemand, keeping legacy costs byte-identical.
func TransferSize(v *vjob.VM) int {
	return v.MemoryDemand() + v.Demand.Get(resources.NetBW) + v.Demand.Get(resources.DiskIO)
}

// TransferDemand is the network footprint of one in-flight action: the
// two endpoints the stream connects and the nominal rate it runs at
// when the NICs do not constrain it.
type TransferDemand struct {
	// Src and Dst are the nodes the data leaves and reaches.
	Src, Dst string
	// Rate is the nominal wire rate in Mbit/s.
	Rate int
}

// ClampedRate returns the demand the transfer meters on a node with
// the given NIC capacity (Mbit/s): the nominal rate, clamped to the
// NIC — a transfer cannot claim more than the link offers, so a lone
// migration into a NIC-poor node is slow, not oversubscribed. A zero
// or negative capacity reports zero demand: nodes without a modeled
// NIC (the paper's 2-D instances) meter nothing and the whole
// bandwidth model compiles away.
func (t TransferDemand) ClampedRate(nicMbps int) int {
	if nicMbps <= 0 {
		return 0
	}
	if t.Rate < nicMbps {
		return t.Rate
	}
	return nicMbps
}

// TransferDemandOf returns the network footprint of the action while
// it executes, or ok=false when the action moves nothing between nodes
// (run, stop, local suspend, local resume) or is nil.
func TransferDemandOf(a Action) (t TransferDemand, ok bool) {
	if a == nil {
		return TransferDemand{}, false
	}
	from, to := a.Nodes()
	var rate int
	switch a.Kind() {
	case KindMigrate:
		return TransferDemand{Src: from, Dst: to, Rate: MigrateRateMbps}, true
	case KindSuspend:
		rate = SuspendPushRateMbps
	case KindResume:
		rate = ResumePushRateMbps
	default:
		return TransferDemand{}, false
	}
	if from == to { // the image stays on its node
		return TransferDemand{}, false
	}
	return TransferDemand{Src: from, Dst: to, Rate: rate}, true
}

// transferBook tracks, while a pool is assembled or replayed, the net
// demand the pool's transfers have already claimed per node, and
// admits or refuses the next transfer against the NIC capacities of
// the configuration. Nodes with no modeled NIC admit everything.
type transferBook struct {
	cfg  *vjob.Configuration
	used map[string]int
}

// reset empties the book for the NIC capacities of cfg, keeping its
// map.
func (b *transferBook) reset(cfg *vjob.Configuration) { b.cfg, b.used = cfg, emptied(b.used) }

// nicOf returns the node's NIC capacity, 0 when the node is unknown
// (an action endpoint outside the configuration meters nothing; the
// feasibility replay will reject it on its own terms).
func (b *transferBook) nicOf(node string) int {
	n := b.cfg.Node(node)
	if n == nil {
		return 0
	}
	return n.Capacity.Get(resources.NetBW)
}

// fits reports whether the action's transfer fits the remaining NIC
// headroom on both endpoints. Actions without a transfer always fit. A
// transfer alone in a pool always fits: its demand is clamped to each
// NIC, so only CONCURRENT transfers can exceed one.
func (b *transferBook) fits(a Action) bool {
	t, ok := TransferDemandOf(a)
	if !ok {
		return true
	}
	for _, ep := range []string{t.Src, t.Dst} {
		nic := b.nicOf(ep)
		if nic <= 0 {
			continue
		}
		if b.used[ep]+t.ClampedRate(nic) > nic {
			return false
		}
	}
	return true
}

// admit books the action's transfer demand on both endpoints.
func (b *transferBook) admit(a Action) { b.add(a, 1) }

// release takes back what admit booked for the action.
func (b *transferBook) release(a Action) { b.add(a, -1) }

func (b *transferBook) add(a Action, sign int) {
	t, ok := TransferDemandOf(a)
	if !ok {
		return
	}
	for _, ep := range []string{t.Src, t.Dst} {
		if nic := b.nicOf(ep); nic > 0 {
			b.used[ep] += sign * t.ClampedRate(nic)
		}
	}
}
