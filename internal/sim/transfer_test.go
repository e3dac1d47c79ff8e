package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"cwcs/internal/duration"
	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// newNetSim builds a simulator whose nodes have a `net` capacity, with
// no invariant cleanup hook — transfer tests provoke NIC
// oversubscription on purpose and assert on it explicitly.
func newNetSim(t *testing.T, nodes, cpu, mem, net int) *Cluster {
	t.Helper()
	cfg := vjob.NewConfiguration()
	for i := 0; i < nodes; i++ {
		cap := resources.New(cpu, mem)
		cap.Set(resources.NetBW, net)
		cfg.AddNode(vjob.NewNodeRes(fmt.Sprintf("n%02d", i), cap))
	}
	return New(cfg, duration.Default())
}

// TestConcurrentMigrationsShareNIC is the fixed-end-time regression:
// two concurrent migrations into one 1 Gb node used to both complete
// in single-migration time (Schedule(now+d) froze the duration at
// start). Metered, each stream gets half the destination NIC and both
// take measurably longer than a lone migration.
func TestConcurrentMigrationsShareNIC(t *testing.T) {
	c := newNetSim(t, 3, 8, 16384, 1000)
	v1 := addRunning(t, c, "v1", "n00", 1, 1024)
	v2 := addRunning(t, c, "v2", "n01", 1, 1024)
	var done1, done2 float64 = -1, -1
	c.StartAction(&plan.Migration{Machine: v1, Src: "n00", Dst: "n02"}, func(err error) {
		if err != nil {
			t.Errorf("v1 migration failed: %v", err)
		}
		done1 = c.Now()
	})
	c.StartAction(&plan.Migration{Machine: v2, Src: "n01", Dst: "n02"}, func(err error) {
		if err != nil {
			t.Errorf("v2 migration failed: %v", err)
		}
		done2 = c.Now()
	})
	c.Run(1000)
	single := duration.Default().Migrate(1024).Seconds() // 15.24 s at 800 Mbit/s
	if done1 < 0 || done2 < 0 {
		t.Fatalf("migrations never completed (done1=%v done2=%v)", done1, done2)
	}
	if done1 <= single || done2 <= single {
		t.Fatalf("concurrent migrations completed in single-migration time: %v/%v vs %v",
			done1, done2, single)
	}
	// Both streams share n02's 1 Gb inbound link: 500 Mbit/s each, so
	// the 8192 Mbit image takes 5 + 8192/500 s.
	want := 5 + 1024*8/500.0
	for _, d := range []float64{done1, done2} {
		if math.Abs(d-want) > 1e-6 {
			t.Fatalf("completion at %v, want %v", d, want)
		}
	}
	if c.Config().HostOf("v1") != "n02" || c.Config().HostOf("v2") != "n02" {
		t.Fatal("VMs not moved")
	}
}

// TestNegativeVolumeMigrationEnds: a VM whose memory and net demands
// sum below zero (a demand written negative) migrates no bits, so its
// metered migration ends after the fixed time alone. Its volume used
// to cancel part of the fixed time, and Run then waited forever on a
// completion time it never reached.
func TestNegativeVolumeMigrationEnds(t *testing.T) {
	c := newNetSim(t, 2, 8, 16384, 1000)
	v := addRunning(t, c, "v1", "n00", 1, 1024)
	v.Demand.Set(resources.Memory, -7)
	v.Demand.Set(resources.NetBW, -7)
	doneAt := -1.0
	c.StartAction(&plan.Migration{Machine: v, Src: "n00", Dst: "n01"}, func(err error) {
		if err != nil {
			t.Errorf("migration failed: %v", err)
		}
		doneAt = c.Now()
	})
	c.Run(1000)
	if want := duration.Default().MigrateSpec(0).Fixed.Seconds(); math.Abs(doneAt-want) > 1e-6 {
		t.Fatalf("migration ended at %v, want after its fixed %v s", doneAt, want)
	}
}

// TestSingleMigrationNominalOnFatNIC: with ample bandwidth the metered
// path reproduces the calibrated duration — the NIC only matters when
// it constrains.
func TestSingleMigrationNominalOnFatNIC(t *testing.T) {
	c := newNetSim(t, 2, 8, 16384, 10000)
	v := addRunning(t, c, "v1", "n00", 1, 1024)
	var doneAt float64 = -1
	c.StartAction(&plan.Migration{Machine: v, Src: "n00", Dst: "n01"}, func(error) { doneAt = c.Now() })
	c.Run(1000)
	want := duration.Default().Migrate(1024).Seconds()
	if math.Abs(doneAt-want) > 1e-6 {
		t.Fatalf("migration on 10 Gb NIC completed at %v, want nominal %v", doneAt, want)
	}
}

// TestNICPoorNodeSlowsMigration: a lone migration into a 100 Mbit/s
// node is admissible (clamping) but slow — the wire part stretches by
// the rate ratio.
func TestNICPoorNodeSlowsMigration(t *testing.T) {
	c := newNetSim(t, 2, 8, 16384, 100)
	v := addRunning(t, c, "v1", "n00", 1, 1024)
	var doneAt float64 = -1
	c.StartAction(&plan.Migration{Machine: v, Src: "n00", Dst: "n01"}, func(error) { doneAt = c.Now() })
	c.Run(1000)
	want := 5 + 1024*8/100.0
	if math.Abs(doneAt-want) > 1e-6 {
		t.Fatalf("migration into 100 Mbit/s node completed at %v, want %v", doneAt, want)
	}
}

// TestTransferRetimedWhenConcurrencyChanges: a second migration
// starting mid-flight slows the first (remaining time recomputed at
// the shared rate), and the second speeds back up once the first
// drains — the end time is a consequence of metered progress, not a
// value frozen at start.
func TestTransferRetimedWhenConcurrencyChanges(t *testing.T) {
	c := newNetSim(t, 3, 8, 16384, 1000)
	v1 := addRunning(t, c, "v1", "n00", 1, 1024)
	v2 := addRunning(t, c, "v2", "n01", 1, 1024)
	var done1, done2 float64 = -1, -1
	c.StartAction(&plan.Migration{Machine: v1, Src: "n00", Dst: "n02"}, func(error) { done1 = c.Now() })
	c.Schedule(10, func() {
		c.StartAction(&plan.Migration{Machine: v2, Src: "n01", Dst: "n02"}, func(error) { done2 = c.Now() })
	})
	c.Run(1000)
	// v1: 5 s fixed, then 800 Mbit/s alone until t=10 (4000 Mbit
	// done), then 500 Mbit/s shared: 4192/500 s more -> 18.384 s.
	want1 := 10 + (1024*8-4000)/500.0
	if math.Abs(done1-want1) > 1e-6 {
		t.Fatalf("v1 completed at %v, want %v", done1, want1)
	}
	// v2: fixed until t=15, shared 500 Mbit/s until v1 drains at
	// want1, then the full link (capped at the 800 nominal).
	shared := (want1 - 15) * 500
	want2 := want1 + (1024*8-shared)/800.0
	if math.Abs(done2-want2) > 1e-6 {
		t.Fatalf("v2 completed at %v, want %v", done2, want2)
	}
}

// TestWatchInvariantsCountsTransferOversubscription: executing the
// blind two-migrations-into-one-NIC schedule under the watcher records
// a transfer violation (capacity class, not structural).
func TestWatchInvariantsCountsTransferOversubscription(t *testing.T) {
	c := newNetSim(t, 3, 8, 16384, 1000)
	v1 := addRunning(t, c, "v1", "n00", 1, 1024)
	v2 := addRunning(t, c, "v2", "n01", 1, 1024)
	w := WatchInvariants(c)
	c.Run(1) // capture the baseline before the transfers start
	c.StartAction(&plan.Migration{Machine: v1, Src: "n00", Dst: "n02"}, nil)
	c.StartAction(&plan.Migration{Machine: v2, Src: "n01", Dst: "n02"}, nil)
	c.Run(1000)
	if w.StructuralCount() != 0 {
		t.Fatalf("structural breaches: %v", w.Err())
	}
	if w.Count() == 0 {
		t.Fatal("transfer-oversubscribed NIC not counted as a violation")
	}
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "transfer-oversubscribed NIC") {
		t.Fatalf("err = %v, want transfer-oversubscription", err)
	}
	// The metered demand itself: two 800 Mbit/s streams clamped into
	// one 1 Gb NIC.
	if d := c.TransferDemands(); len(d) != 0 {
		t.Fatalf("transfers still metered after completion: %v", d)
	}
}

// TestTransferDemandsAndViolations: metering arithmetic — demands are
// clamped nominal rates on both endpoints, and only nodes whose
// residual cannot absorb them are violated.
func TestTransferDemandsAndViolations(t *testing.T) {
	c := newNetSim(t, 3, 8, 16384, 1000)
	v1 := addRunning(t, c, "v1", "n00", 1, 1024)
	v2 := addRunning(t, c, "v2", "n01", 1, 1024)
	c.StartAction(&plan.Migration{Machine: v1, Src: "n00", Dst: "n02"}, nil)
	c.StartAction(&plan.Migration{Machine: v2, Src: "n01", Dst: "n02"}, nil)
	d := c.TransferDemands()
	if d["n00"] != 800 || d["n01"] != 800 || d["n02"] != 1600 {
		t.Fatalf("demands = %v, want 800/800/1600", d)
	}
	viol := c.TransferViolations()
	if len(viol) != 1 || viol[0].Node != "n02" || viol[0].Resource != "net" {
		t.Fatalf("violations = %v, want one on n02/net", viol)
	}
	if viol[0].Demand != 1600 || viol[0].Capacity != 1000 {
		t.Fatalf("violation = %+v, want demand 1600 capacity 1000", viol[0])
	}
}

// fakeAction is a plan.Action the duration model does not know.
type fakeAction struct{ m *vjob.VM }

func (f *fakeAction) VM() *vjob.VM                        { return f.m }
func (f *fakeAction) Kind() plan.Kind                     { return plan.Kind(-1) }
func (f *fakeAction) Nodes() (from, to string)            { return "", "" }
func (f *fakeAction) Cost() int                           { return 0 }
func (f *fakeAction) FeasibleIn(*vjob.Configuration) bool { return true }
func (f *fakeAction) Apply(*vjob.Configuration) error     { return nil }
func (f *fakeAction) String() string                      { return "fake(" + f.m.Name + ")" }

// TestUnknownActionFailsInsteadOfPanicking: an unmodeled action used
// to panic the simulator (duration.go's ActionDuration); it now fails
// through the normal done callback with a typed error and leaves the
// configuration untouched.
func TestUnknownActionFailsInsteadOfPanicking(t *testing.T) {
	c := newSim(t, 2, 2, 4096)
	v := addRunning(t, c, "v1", "n00", 1, 1024)
	var got error
	fired := false
	c.StartAction(&fakeAction{m: v}, func(err error) {
		fired = true
		got = err
	})
	c.Run(10)
	if !fired {
		t.Fatal("done callback never fired")
	}
	var ue *duration.UnknownActionError
	if !errors.As(got, &ue) {
		t.Fatalf("err = %v, want *duration.UnknownActionError", got)
	}
	if c.Config().HostOf("v1") != "n00" {
		t.Fatal("configuration mutated by unmodeled action")
	}
	if n := c.ActionCounts()["unknown"]; n != 0 {
		t.Fatalf("unmodeled action counted as run: %d", n)
	}
}

// TestZeroNetClusterKeepsLegacyTiming: without `net` capacities no
// transfer is metered — the Schedule(now+d) path runs and timings are
// byte-identical to the calibrated model (the compile-away guarantee
// the legacy goldens rely on).
func TestZeroNetClusterKeepsLegacyTiming(t *testing.T) {
	c := newSim(t, 3, 8, 16384)
	v1 := addRunning(t, c, "v1", "n00", 1, 1024)
	v2 := addRunning(t, c, "v2", "n01", 1, 1024)
	var done1, done2 float64 = -1, -1
	c.StartAction(&plan.Migration{Machine: v1, Src: "n00", Dst: "n02"}, func(error) { done1 = c.Now() })
	c.StartAction(&plan.Migration{Machine: v2, Src: "n01", Dst: "n02"}, func(error) { done2 = c.Now() })
	c.Run(1000)
	want := duration.Default().Migrate(1024).Seconds()
	if done1 != want || done2 != want {
		t.Fatalf("2-D timings deviate: %v/%v, want exactly %v", done1, done2, want)
	}
	if len(c.TransferDemands()) != 0 {
		t.Fatal("2-D cluster metered a transfer")
	}
}
