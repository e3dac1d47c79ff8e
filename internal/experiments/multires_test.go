package experiments

import (
	"strings"
	"testing"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// quickMultiResOptions shrinks the full-size scenario of `experiments
// multires` so the study completes in well under a second while keeping
// the phenomenon: the 2-D stack over-commits the network, the 4-D stack
// does not.
func quickMultiResOptions() MultiResOptions {
	o := DefaultMultiResOptions()
	o.Nodes = 48
	o.Optimizer = core.Optimizer{Timeout: 500 * time.Millisecond, Workers: 1}
	return o
}

// TestMultiResStudy pins the study's headline: on a heterogeneous
// cluster the CPU+memory-only stack produces a destination that
// over-commits an extra dimension, while the 4-dimension model reaches
// a violation-free configuration under the same budget. At half that
// budget both sides must still solve.
func TestMultiResStudy(t *testing.T) {
	r := RunMultiRes(quickMultiResOptions())
	if r.Blind.Err != "" || r.Aware.Err != "" {
		t.Fatalf("solve failed: blind=%q aware=%q", r.Blind.Err, r.Aware.Err)
	}
	if r.NetBoundVMs == 0 {
		t.Fatal("scenario generated no net-bound VMs; the study is vacuous")
	}
	if free := violationFree(r.Blind); free {
		t.Fatalf("blind model reached a violation-free configuration; the seed no longer exhibits the over-commit (violations %v)", r.Blind.Violations)
	}
	if r.Blind.Violations["net"]+r.Blind.Violations["disk"] == 0 {
		t.Fatalf("blind model's violations are not on the hidden dimensions: %v", r.Blind.Violations)
	}
	if !violationFree(r.Aware) {
		t.Fatalf("4-dim model left violations: %v", r.Aware.Violations)
	}
	// Both sides' cpu/mem books must be clean: the blind stack is blind
	// to net/disk, not broken.
	if r.Blind.Violations["cpu"] != 0 || r.Blind.Violations["memory"] != 0 {
		t.Fatalf("blind model violated the dimensions it does see: %v", r.Blind.Violations)
	}

	half := quickMultiResOptions()
	half.Optimizer.Timeout /= 2
	if r := RunMultiRes(half); r.Blind.Err != "" || r.Aware.Err != "" {
		t.Fatalf("%v budget: solve failed: blind=%q aware=%q", half.Optimizer.Timeout, r.Blind.Err, r.Aware.Err)
	}
}

// TestMultiResRenderings smokes the table/CSV shapes the CLI exports.
func TestMultiResRenderings(t *testing.T) {
	r := RunMultiRes(quickMultiResOptions())
	table := MultiResTable(r)
	for _, want := range []string{"cpu+mem", "4-dim", "net-bound"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	csv := MultiResCSV(r)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV should be header + 2 rows:\n%s", csv)
	}
	if lines[0] != "model,ok,solve_ms,cost,optimal,running,cpu_viol,memory_viol,net_viol,disk_viol" {
		t.Fatalf("CSV header drifted: %s", lines[0])
	}
}

// TestStripExtrasAndTransplant pins the audit plumbing: stripping
// erases only the extra dimensions, and transplant faithfully replays
// a destination onto the true demands.
func TestStripExtrasAndTransplant(t *testing.T) {
	cfg := vjob.NewConfiguration()
	cap := resources.New(2, 4096)
	cap.Set(resources.NetBW, 1000)
	cfg.AddNode(vjob.NewNodeRes("n1", cap))
	cfg.AddNode(vjob.NewNodeRes("n2", cap))
	d := resources.New(1, 1024)
	d.Set(resources.NetBW, 800)
	cfg.AddVM(vjob.NewVMRes("v1", "j", d))
	cfg.AddVM(vjob.NewVMRes("v2", "j", d))
	if err := cfg.SetRunning("v1", "n1"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.SetRunning("v2", "n1"); err != nil {
		t.Fatal(err)
	}

	blind := stripExtras(cfg)
	if got := blind.VM("v1").Demand.Get(resources.NetBW); got != 0 {
		t.Fatalf("strip kept net demand %d", got)
	}
	if blind.VM("v1").MemoryDemand() != 1024 || blind.Node("n1").CPU() != 2 {
		t.Fatal("strip altered the base dimensions")
	}
	if !blind.Viable() {
		t.Fatalf("stripped configuration should be 2-D viable: %v", blind.Violations())
	}
	if cfg.Viable() {
		t.Fatal("true configuration should over-commit net")
	}

	// A blind destination keeping both VMs on n1 transplants back to a
	// net-violating truth; moving one to n2 clears it.
	truth, err := transplant(cfg, blind)
	if err != nil {
		t.Fatal(err)
	}
	if violationsByKind(truth)["net"] != 1 {
		t.Fatalf("transplanted violations: %v", violationsByKind(truth))
	}
	if err := blind.SetRunning("v2", "n2"); err != nil {
		t.Fatal(err)
	}
	truth, err = transplant(cfg, blind)
	if err != nil {
		t.Fatal(err)
	}
	if n := violationsByKind(truth)["net"]; n != 0 {
		t.Fatalf("spread placement still violates net %d times", n)
	}
	if truth.HostOf("v2") != "n2" {
		t.Fatal("transplant dropped the move")
	}
}

// violationFree reports whether the side's destination over-commits
// nothing on any dimension.
func violationFree(s MultiResSide) bool {
	if s.Err != "" {
		return false
	}
	for _, n := range s.Violations {
		if n > 0 {
			return false
		}
	}
	return true
}
