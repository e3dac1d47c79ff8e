// Package duration models how long each VM context-switch action takes
// and how much it slows down co-hosted busy VMs. It is the analytic
// substitute for the measurements of §2.3 / Figure 3 of the paper,
// which were taken on 2.1 GHz Core 2 Duo nodes with Xen 3.2 and NFS
// storage. The model preserves the shapes that matter to the planner:
//
//   - booting a VM is constant (~6 s) and a clean shutdown is constant
//     (~25 s, dominated by service timeouts);
//   - migration, suspend and resume durations grow linearly with the
//     memory allocated to the manipulated VM (a migration reaches ~26 s
//     at 2 GiB);
//   - a remote suspend/resume (image pushed with scp or rsync) takes
//     about twice as long as a local one (a remote resume reaches ~3
//     minutes at 2 GiB);
//   - while an operation runs, busy VMs on the involved nodes are
//     decelerated by a factor of ~1.3 (local) to ~1.5 (remote).
package duration

import (
	"fmt"
	"time"

	"cwcs/internal/plan"
)

// Transfer says how a suspended image reaches (or leaves) the node
// that runs the VM.
type Transfer int

const (
	// Local: the image stays on the node's own storage.
	Local Transfer = iota
	// SCP: the image is copied with scp.
	SCP
	// Rsync: the image is copied with rsync.
	Rsync
)

// String names the transfer mode as in Figure 3 ("local", "local+scp",
// "local+rsync").
func (t Transfer) String() string {
	switch t {
	case Local:
		return "local"
	case SCP:
		return "local+scp"
	case Rsync:
		return "local+rsync"
	default:
		return "invalid"
	}
}

// The §2.3 calibration: seconds, with memory in MiB. A migration
// takes migrateBaseSec + migratePerMiB*mem, a local suspend or resume
// likewise; a remote one multiplies the local duration by its transfer
// mode's factor.
const (
	// bootSec is the constant duration of a run (start) action.
	bootSec = 6
	// shutdownSec is the constant duration of a stop (clean shutdown).
	shutdownSec = 25
	// migrateBaseSec, suspendBaseSec and resumeBaseSec are the
	// memory-independent parts of a migration, a local suspend and a
	// local resume.
	migrateBaseSec = 5
	suspendBaseSec = 5
	resumeBaseSec  = 5
	// remoteFactorSCP and remoteFactorRsync multiply a local suspend
	// or resume when the image crosses the network.
	remoteFactorSCP   = 2.0
	remoteFactorRsync = 1.9
	// decelLocal and decelRemote slow busy VMs co-hosted with a local
	// (resp. remote) operation.
	decelLocal  = 1.3
	decelRemote = 1.5
)

// The per-MiB slopes are the planner's nominal wire rates, inverted: 1
// MiB of image is 8 Mbit on the wire, and a local suspend or resume
// runs at the rate of its remote (SCP) push times the SCP factor. They
// are exact: 0.01, 0.05 and 0.04 s/MiB.
const (
	migratePerMiB = 8.0 / plan.MigrateRateMbps
	suspendPerMiB = 8.0 / plan.SuspendPushRateMbps / remoteFactorSCP
	resumePerMiB  = 8.0 / plan.ResumePushRateMbps / remoteFactorSCP
)

// Model times the actions with the §2.3 calibration: boot 6 s,
// shutdown 25 s, migrate 5+mem/100 s (25.5 s at 2 GiB), local suspend
// 5+mem/20 s (107 s at 2 GiB), local resume 5+mem/25 s (87 s at 2
// GiB), remote ≈ 2x, deceleration 1.3 local / 1.5 remote.
type Model struct{}

// Default returns the calibrated model.
func Default() Model { return Model{} }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Boot returns the duration of a run action.
func (Model) Boot() time.Duration { return secs(bootSec) }

// Shutdown returns the duration of a clean stop action.
func (Model) Shutdown() time.Duration { return secs(shutdownSec) }

// Migrate returns the duration of a live migration of a VM with the
// given memory allocation (MiB).
func (Model) Migrate(memMiB int) time.Duration {
	return secs(migrateBaseSec + migratePerMiB*float64(memMiB))
}

// Suspend returns the duration of suspending a VM, writing the image
// through the given transfer.
func (Model) Suspend(memMiB int, tr Transfer) time.Duration {
	local := suspendBaseSec + suspendPerMiB*float64(memMiB)
	return secs(local * factor(tr))
}

// Resume returns the duration of resuming a VM whose image arrives
// through the given transfer.
func (Model) Resume(memMiB int, tr Transfer) time.Duration {
	local := resumeBaseSec + resumePerMiB*float64(memMiB)
	return secs(local * factor(tr))
}

func factor(tr Transfer) float64 {
	switch tr {
	case SCP:
		return remoteFactorSCP
	case Rsync:
		return remoteFactorRsync
	default:
		return 1
	}
}

// Deceleration returns the slowdown factor suffered by busy VMs
// co-hosted with an operation using the given transfer.
func (Model) Deceleration(tr Transfer) float64 {
	if tr == Local {
		return decelLocal
	}
	return decelRemote
}

// UnknownActionError reports an action the duration model cannot
// time. It used to be a panic; a plan carrying an unmodeled action now
// surfaces a failed action through the driver instead of crashing the
// daemon.
type UnknownActionError struct {
	// Action is the unmodeled action (possibly nil).
	Action plan.Action
}

func (e *UnknownActionError) Error() string {
	return fmt.Sprintf("duration: unknown action type %T", e.Action)
}

// ActionDuration maps a plan action to its nominal duration and the
// transfer mode involved (remote suspends/resumes use SCP, the paper's
// default push). A nil action or an unknown kind returns an
// UnknownActionError; the durations here assume the calibrated wire
// rate is available — ActionTransfer exposes the bandwidth-dependent
// decomposition.
func (m Model) ActionDuration(a plan.Action) (time.Duration, Transfer, error) {
	if a == nil {
		return 0, Local, &UnknownActionError{}
	}
	tr := Local
	if _, remote := plan.TransferDemandOf(a); remote {
		tr = SCP
	}
	switch a.Kind() {
	case plan.KindRun:
		return m.Boot(), Local, nil
	case plan.KindStop:
		return m.Shutdown(), Local, nil
	case plan.KindMigrate: // live migration pushes no image
		return m.Migrate(a.VM().MemoryDemand()), Local, nil
	case plan.KindSuspend:
		return m.Suspend(a.VM().MemoryDemand(), tr), tr, nil
	case plan.KindResume:
		return m.Resume(a.VM().MemoryDemand(), tr), tr, nil
	}
	return 0, Local, &UnknownActionError{Action: a}
}
