package duration

import (
	"time"

	"cwcs/internal/plan"
)

// This file is the time side of the bandwidth-aware context switch
// model (DESIGN.md §9). The §2.3 calibration times each transfer at
// one fixed wire rate — the per-MiB slope IS that rate, inverted. Here
// the slope is split into an explicit volume and rate so the simulator
// can re-time an in-flight transfer whenever the bandwidth actually
// available changes (NIC contention, concurrent transfers). At the
// nominal rate the decomposition reproduces the calibrated durations
// exactly, so clusters without a modeled `net` capacity never notice.

// TransferSpec decomposes a transfer-bearing action's duration into a
// bandwidth-independent part and a wire transfer.
type TransferSpec struct {
	// Fixed is the setup/teardown time spent regardless of bandwidth
	// (protocol handshakes, device quiesce, image open).
	Fixed time.Duration
	// VolumeMiB is the data volume crossing the wire, 1 MiB ≡ 8 Mbit.
	VolumeMiB int
	// NominalMbps is the calibrated wire rate: the fastest the transfer
	// can go even on an idle fat link (the hypervisor's copy loop, not
	// the NIC, is the bottleneck there).
	NominalMbps float64
	// Tr is the transfer mode, for deceleration lookups.
	Tr Transfer
}

// Bits returns the wire volume in Mbit.
func (s TransferSpec) Bits() float64 { return float64(s.VolumeMiB) * 8 }

// MigrateSpec decomposes a live migration of volMiB: fixed
// migrateBaseSec plus the pre-copy stream at plan.MigrateRateMbps.
func (Model) MigrateSpec(volMiB int) TransferSpec {
	return TransferSpec{
		Fixed:       secs(migrateBaseSec),
		VolumeMiB:   volMiB,
		NominalMbps: 8 / migratePerMiB,
		Tr:          Local,
	}
}

// SuspendSpec decomposes a remote suspend pushing volMiB through tr:
// the whole calibrated duration scales by the remote factor, so both
// the fixed part and the wire slope carry it (plan.SuspendPushRateMbps
// for SCP).
func (Model) SuspendSpec(volMiB int, tr Transfer) TransferSpec {
	f := factor(tr)
	return TransferSpec{
		Fixed:       secs(suspendBaseSec * f),
		VolumeMiB:   volMiB,
		NominalMbps: 8 / (suspendPerMiB * f),
		Tr:          tr,
	}
}

// ResumeSpec decomposes a remote resume pulling volMiB through tr
// (plan.ResumePushRateMbps for SCP).
func (Model) ResumeSpec(volMiB int, tr Transfer) TransferSpec {
	f := factor(tr)
	return TransferSpec{
		Fixed:       secs(resumeBaseSec * f),
		VolumeMiB:   volMiB,
		NominalMbps: 8 / (resumePerMiB * f),
		Tr:          tr,
	}
}

// ActionTransfer returns the wire decomposition of an action that
// moves data between nodes, or ok=false when nothing crosses the
// network (run, stop, local suspend, local resume — their durations
// are bandwidth-independent and come from ActionDuration). The volume
// is plan.TransferSize: Dm widened by the transfer-relevant extra
// dimensions, exactly Dm on 2-D instances.
func (m Model) ActionTransfer(a plan.Action) (TransferSpec, bool) {
	if _, ok := plan.TransferDemandOf(a); !ok {
		return TransferSpec{}, false
	}
	size := plan.TransferSize(a.VM())
	switch a.Kind() {
	case plan.KindMigrate:
		return m.MigrateSpec(size), true
	case plan.KindSuspend:
		return m.SuspendSpec(size, SCP), true
	}
	return m.ResumeSpec(size, SCP), true
}
