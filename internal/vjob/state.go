package vjob

import "fmt"

// State is the position of a vjob (or of a single VM) in the life cycle
// of Figure 2 of the paper.
type State int8

const (
	// Waiting: submitted, never run; holds no cluster resource.
	Waiting State = iota
	// Running: hosted on a node with its demands satisfied.
	Running
	// Sleeping: suspended; its memory image lies on a node's storage
	// but it consumes neither CPU nor memory.
	Sleeping
	// Terminated: stopped by its owner; removed from the system.
	Terminated
)

// String returns the state name used throughout logs and reports.
func (s State) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Running:
		return "running"
	case Sleeping:
		return "sleeping"
	case Terminated:
		return "terminated"
	default:
		return "invalid"
	}
}

// ParseState is the inverse of String: it resolves a state name and
// rejects any other string, the empty one included.
func ParseState(name string) (State, error) {
	switch name {
	case "waiting":
		return Waiting, nil
	case "running":
		return Running, nil
	case "sleeping":
		return Sleeping, nil
	case "terminated":
		return Terminated, nil
	default:
		return Waiting, fmt.Errorf("vjob: unknown state %q", name)
	}
}

// ValidTransition reports whether the life cycle of Figure 2 permits
// switching from s to t. Migrations keep the Running state, so Running
// to Running is allowed.
func ValidTransition(s, t State) bool {
	switch s {
	case Waiting:
		return t == Running || t == Waiting
	case Running:
		return t == Running || t == Sleeping || t == Terminated
	case Sleeping:
		return t == Running || t == Sleeping
	case Terminated:
		return t == Terminated
	default:
		return false
	}
}

// VJob is a virtualized job: a job encapsulated into one or several
// VMs, scheduled as a gang. All VMs of a vjob share the same state in
// every configuration computed by a decision module.
type VJob struct {
	// Name identifies the vjob.
	Name string
	// VMs are the machines the job spans. Order is the submission
	// order and is preserved by all operations.
	VMs []*VM
	// Priority orders vjobs in the FCFS queue; a lower value means the
	// vjob was submitted earlier (and thus wins ties).
	Priority int
	// Submitted is the submission instant in seconds of virtual time.
	Submitted float64
}

// NewVJob builds a vjob owning the given VMs and stamps each VM with
// the vjob name.
func NewVJob(name string, priority int, vms ...*VM) *VJob {
	j := &VJob{Name: name, Priority: priority, VMs: vms}
	for _, v := range vms {
		v.VJob = name
	}
	return j
}
