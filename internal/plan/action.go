// Package plan implements the reconfiguration machinery of the
// cluster-wide context switch (Section 4 of the paper): the actions
// that manipulate VMs, the reconfiguration graph derived from a source
// and a destination configuration, the reconfiguration plan made of
// sequential pools of parallel-feasible actions, the pivot-based
// breaking of inter-dependent migration cycles, the grouping of the
// suspends and resumes of a vjob, and the cost model of Table 1 / §4.2.
package plan

import (
	"fmt"

	"cwcs/internal/vjob"
)

// Kind is the type of an action, one of the five of Table 1. The kinds
// are declared in the order a pool lists its actions: suspends first,
// then stops, migrations, resumes and runs.
type Kind int

const (
	KindSuspend Kind = iota
	KindStop
	KindMigrate
	KindResume
	KindRun
)

var kindNames = [...]string{"suspend", "stop", "migrate", "resume", "run"}

// String returns the Table 1 name of the kind, or "unknown".
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Action is one elementary VM context switch. Every action knows its
// kind, the nodes it moves its VM between, its local cost (Table 1),
// whether it can begin in a given configuration, and how to transform
// a configuration once it completes.
//
// Kind and Nodes are the one place that knows the action set: every
// other fact about an action (the nodes it touches, the node it uses
// resources on, its transfer, its rank in a pool, its duration) is
// derived from them.
type Action interface {
	// VM returns the manipulated VM.
	VM() *vjob.VM
	// Kind returns the type of the action.
	Kind() Kind
	// Nodes returns the node the VM or its image leaves and the node
	// it arrives on. A run has no from and a stop has no to.
	Nodes() (from, to string)
	// Cost returns the local cost of the action per Table 1 of the
	// paper, in MiB of moved memory (0 for run and stop).
	Cost() int
	// FeasibleIn reports whether the action can start in the given
	// configuration: the resources it requires on its destination node
	// are free. Actions that only liberate resources are always
	// feasible.
	FeasibleIn(c *vjob.Configuration) bool
	// Apply mutates the configuration to the state reached once the
	// action has completed.
	Apply(c *vjob.Configuration) error
	// String renders the action the way the paper writes it, e.g.
	// "migrate(vm2,n1,n3)".
	String() string
}

// AppendTouchedNodes appends to buf every node the action reads or
// writes resources on: both ends of its Nodes, but only the arrival
// node of a run and only the departure node of a stop. Callers build
// dirty regions from it (e.g. the event-driven loop in internal/core);
// one that reads the nodes on the spot passes a [2]string on its
// stack and allocates nothing.
func AppendTouchedNodes(buf []string, a Action) []string {
	from, to := a.Nodes()
	switch a.Kind() {
	case KindRun:
		return append(buf, to)
	case KindStop:
		return append(buf, from)
	case KindSuspend, KindMigrate, KindResume:
		return append(buf, from, to)
	}
	return buf
}

// Migration moves a running VM from node Src to node Dst with live
// migration; the VM stays in the Running state throughout.
type Migration struct {
	Machine *vjob.VM
	Src     string
	Dst     string
}

// VM returns the migrated VM.
func (a *Migration) VM() *vjob.VM { return a.Machine }

func (a *Migration) Kind() Kind               { return KindMigrate }
func (a *Migration) Nodes() (from, to string) { return a.Src, a.Dst }

// Cost is the volume the migration moves (Table 1's Dm, widened by
// TransferSize to the transfer-relevant extra dimensions).
func (a *Migration) Cost() int { return TransferSize(a.Machine) }

// FeasibleIn reports whether Dst currently offers the VM's demands.
func (a *Migration) FeasibleIn(c *vjob.Configuration) bool {
	return c.Fits(a.Machine, a.Dst)
}

// Apply re-hosts the VM on Dst.
func (a *Migration) Apply(c *vjob.Configuration) error {
	if c.StateOf(a.Machine.Name) != vjob.Running || c.HostOf(a.Machine.Name) != a.Src {
		return fmt.Errorf("plan: %s: VM not running on %s", a, a.Src)
	}
	return c.SetRunning(a.Machine.Name, a.Dst)
}

func (a *Migration) String() string {
	return fmt.Sprintf("migrate(%s,%s,%s)", a.Machine.Name, a.Src, a.Dst)
}

// Run boots a waiting VM on node On.
type Run struct {
	Machine *vjob.VM
	On      string
}

// VM returns the booted VM.
func (a *Run) VM() *vjob.VM { return a.Machine }

func (a *Run) Kind() Kind               { return KindRun }
func (a *Run) Nodes() (from, to string) { return "", a.On }

// Cost is constant, arbitrarily 0 (Table 1): boot duration does not
// depend on the VM demands.
func (a *Run) Cost() int { return 0 }

// FeasibleIn reports whether On currently offers the VM's demands.
func (a *Run) FeasibleIn(c *vjob.Configuration) bool {
	return c.Fits(a.Machine, a.On)
}

// Apply sets the VM running on On.
func (a *Run) Apply(c *vjob.Configuration) error {
	if c.StateOf(a.Machine.Name) != vjob.Waiting {
		return fmt.Errorf("plan: %s: VM not waiting", a)
	}
	return c.SetRunning(a.Machine.Name, a.On)
}

func (a *Run) String() string { return fmt.Sprintf("run(%s,%s)", a.Machine.Name, a.On) }

// Stop shuts a running VM down and removes it from the system; the
// owning vjob is on its way to the Terminated state.
type Stop struct {
	Machine *vjob.VM
	On      string
}

// VM returns the stopped VM.
func (a *Stop) VM() *vjob.VM { return a.Machine }

func (a *Stop) Kind() Kind               { return KindStop }
func (a *Stop) Nodes() (from, to string) { return a.On, "" }

// Cost is constant, arbitrarily 0 (Table 1).
func (a *Stop) Cost() int { return 0 }

// FeasibleIn always reports true: stopping only liberates resources.
func (a *Stop) FeasibleIn(*vjob.Configuration) bool { return true }

// Apply removes the VM from the configuration.
func (a *Stop) Apply(c *vjob.Configuration) error {
	if c.StateOf(a.Machine.Name) != vjob.Running || c.HostOf(a.Machine.Name) != a.On {
		return fmt.Errorf("plan: %s: VM not running on %s", a, a.On)
	}
	c.RemoveVM(a.Machine.Name)
	return nil
}

func (a *Stop) String() string { return fmt.Sprintf("stop(%s,%s)", a.Machine.Name, a.On) }

// Suspend writes the memory and state of a VM running on node On to
// the persistent storage of node To, liberating On's resources; the VM
// goes Sleeping.
type Suspend struct {
	Machine *vjob.VM
	On      string
	To      string
}

// VM returns the suspended VM.
func (a *Suspend) VM() *vjob.VM { return a.Machine }

func (a *Suspend) Kind() Kind               { return KindSuspend }
func (a *Suspend) Nodes() (from, to string) { return a.On, a.To }

// Cost is the volume of the written image (Table 1's Dm, widened by
// TransferSize to the transfer-relevant extra dimensions).
func (a *Suspend) Cost() int { return TransferSize(a.Machine) }

// FeasibleIn always reports true: suspending only liberates resources.
func (a *Suspend) FeasibleIn(*vjob.Configuration) bool { return true }

// Apply moves the VM to the Sleeping state with its image on To.
func (a *Suspend) Apply(c *vjob.Configuration) error {
	if c.StateOf(a.Machine.Name) != vjob.Running || c.HostOf(a.Machine.Name) != a.On {
		return fmt.Errorf("plan: %s: VM not running on %s", a, a.On)
	}
	return c.SetSleeping(a.Machine.Name, a.To)
}

func (a *Suspend) String() string {
	return fmt.Sprintf("suspend(%s,%s,%s)", a.Machine.Name, a.On, a.To)
}

// Resume restores a sleeping VM whose image lies on node From onto
// node On. When From != On the image must first be moved, which
// doubles the cost (Table 1) and roughly doubles the duration (§2.3).
type Resume struct {
	Machine *vjob.VM
	From    string
	On      string
}

// VM returns the resumed VM.
func (a *Resume) VM() *vjob.VM { return a.Machine }

func (a *Resume) Kind() Kind               { return KindResume }
func (a *Resume) Nodes() (from, to string) { return a.From, a.On }

// Local reports whether the resume happens on the node already holding
// the suspended image.
func (a *Resume) Local() bool { return a.From == a.On }

// Cost is the image volume for a local resume and twice that for a
// remote one, which must drag the image across first (Table 1, with
// Dm widened by TransferSize to the transfer-relevant dimensions).
func (a *Resume) Cost() int {
	if a.Local() {
		return TransferSize(a.Machine)
	}
	return 2 * TransferSize(a.Machine)
}

// FeasibleIn reports whether On currently offers the VM's demands.
func (a *Resume) FeasibleIn(c *vjob.Configuration) bool {
	return c.Fits(a.Machine, a.On)
}

// Apply sets the VM running on On.
func (a *Resume) Apply(c *vjob.Configuration) error {
	if c.StateOf(a.Machine.Name) != vjob.Sleeping {
		return fmt.Errorf("plan: %s: VM not sleeping", a)
	}
	return c.SetRunning(a.Machine.Name, a.On)
}

func (a *Resume) String() string {
	return fmt.Sprintf("resume(%s,%s,%s)", a.Machine.Name, a.From, a.On)
}
