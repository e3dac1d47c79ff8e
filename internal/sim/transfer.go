package sim

import (
	"sort"

	"cwcs/internal/duration"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// This file meters in-flight cross-node transfers (DESIGN.md §9).
// Actions whose endpoints have a modeled NIC do not get a fixed end
// time at start: their remaining work is re-timed by the Run loop at
// the bandwidth actually available, so two migrations squeezing into
// one 1 Gb node take longer than one — the fixed-end-time
// Schedule(now+d) path only remains for clusters without `net`
// capacities, where it stays byte-identical to the calibrated model.

// minTransferMbps is the floor wire rate: even a saturated NIC drains
// a transfer eventually (TCP keeps trickling), so progress — and the
// §4.1 termination guarantee — survives arbitrary oversubscription.
const minTransferMbps = 1.0

// transfer is the progress state of one metered in-flight transfer.
type transfer struct {
	spec   duration.TransferSpec
	demand plan.TransferDemand
	// endpoints are the transfer's nodes with a modeled NIC at start
	// time; only those meter demand and constrain the rate.
	endpoints []string
	// fixedLeft is the bandwidth-independent time remaining (seconds);
	// bitsLeft is the wire volume remaining (Mbit). The fixed part
	// runs first.
	fixedLeft float64
	bitsLeft  float64
}

// remainingSeconds returns the time to completion at the given rate.
func (x *transfer) remainingSeconds(rate float64) float64 {
	if rate < minTransferMbps {
		rate = minTransferMbps
	}
	return x.fixedLeft + x.bitsLeft/rate
}

// advance consumes dt seconds of progress at the given rate.
func (x *transfer) advance(dt, rate float64) {
	if rate < minTransferMbps {
		rate = minTransferMbps
	}
	if x.fixedLeft > 0 {
		if dt <= x.fixedLeft {
			x.fixedLeft -= dt
			return
		}
		dt -= x.fixedLeft
		x.fixedLeft = 0
	}
	x.bitsLeft -= dt * rate
	if x.bitsLeft < 0 {
		x.bitsLeft = 0
	}
}

const xferEps = 1e-6

// finished reports whether the transfer has no work left (within
// float residue).
func (x *transfer) finished() bool {
	return x.fixedLeft <= xferEps && x.bitsLeft <= xferEps
}

// newTransfer returns the metered transfer state for the action, or
// nil when the legacy fixed-duration path applies: the action moves
// nothing across nodes, suspend-to-RAM mode is on, or no endpoint has
// a modeled NIC — zero `net` capacity compiles the bandwidth model
// away, keeping 2-D timings byte-identical to the calibration.
func (c *Cluster) newTransfer(a plan.Action) *transfer {
	if c.SuspendToRAM {
		switch a.(type) {
		case *plan.Suspend, *plan.Resume:
			return nil
		}
	}
	spec, ok := c.model.ActionTransfer(a)
	if !ok {
		return nil
	}
	td, ok := plan.TransferDemandOf(a)
	if !ok {
		return nil
	}
	var eps []string
	for _, ep := range []string{td.Src, td.Dst} {
		if n := c.cfg.Node(ep); n != nil && n.Capacity.Get(resources.NetBW) > 0 {
			eps = append(eps, ep)
		}
	}
	if len(eps) == 0 {
		return nil
	}
	return &transfer{
		spec:      spec,
		demand:    td,
		endpoints: eps,
		fixedLeft: spec.Fixed.Seconds(),
		bitsLeft:  spec.Bits(),
	}
}

// removeTransfer drops the operation from the metered-transfer list.
func (c *Cluster) removeTransfer(op *operation) {
	for i, o := range c.xfers {
		if o == op {
			c.xfers = append(c.xfers[:i], c.xfers[i+1:]...)
			return
		}
	}
}

// transferRates computes the wire rate each metered transfer currently
// sustains: the nominal rate, capped on every metered endpoint by a
// fair share of the NIC's residual bandwidth — what the running VMs'
// own `net` demand leaves free, split evenly among the transfers
// touching that NIC — and floored at minTransferMbps.
func (c *Cluster) transferRates() map[*operation]float64 {
	if len(c.xfers) == 0 {
		return nil
	}
	count := make(map[string]int)
	for _, op := range c.xfers {
		for _, ep := range op.xfer.endpoints {
			count[ep]++
		}
	}
	out := make(map[*operation]float64, len(c.xfers))
	for _, op := range c.xfers {
		rate := op.xfer.spec.NominalMbps
		for _, ep := range op.xfer.endpoints {
			if c.cfg.Node(ep) == nil {
				continue // node went offline mid-transfer
			}
			share := float64(c.cfg.Free(ep).Get(resources.NetBW)) / float64(count[ep])
			if share < rate {
				rate = share
			}
		}
		if rate < minTransferMbps {
			rate = minTransferMbps
		}
		out[op] = rate
	}
	return out
}

// TransferDemands returns, per node, the `net` demand (Mbit/s) the
// in-flight transfers meter on it: each transfer's nominal rate
// clamped to the NIC, the same arithmetic the plan builder books when
// it admits a pool. Empty when nothing metered is in flight.
func (c *Cluster) TransferDemands() map[string]int {
	if len(c.xfers) == 0 {
		return nil
	}
	out := make(map[string]int)
	for _, op := range c.xfers {
		for _, ep := range op.xfer.endpoints {
			n := c.cfg.Node(ep)
			if n == nil {
				continue
			}
			out[ep] += op.xfer.demand.ClampedRate(n.Capacity.Get(resources.NetBW))
		}
	}
	return out
}

// TransferViolations returns the nodes whose NIC the in-flight
// transfers oversubscribe: running-VM `net` demand fits the capacity,
// but adding the metered transfer demand exceeds it. Nodes whose
// running VMs alone overload the NIC are excluded — those already
// appear in Config().Violations(), and counting them here would tally
// the same exposure twice.
func (c *Cluster) TransferViolations() []vjob.Violation {
	demands := c.TransferDemands()
	if len(demands) == 0 {
		return nil
	}
	nodes := make([]string, 0, len(demands))
	for n := range demands {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var out []vjob.Violation
	for _, name := range nodes {
		n := c.cfg.Node(name)
		if n == nil {
			continue
		}
		nic := n.Capacity.Get(resources.NetBW)
		residual := c.cfg.Free(name).Get(resources.NetBW)
		if residual >= 0 && demands[name] > residual {
			out = append(out, vjob.Violation{
				Node:     name,
				Resource: resources.NetBW.String(),
				Demand:   nic - residual + demands[name],
				Capacity: nic,
			})
		}
	}
	return out
}
