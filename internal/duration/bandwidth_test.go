package duration

import (
	"math"
	"testing"
	"time"

	"cwcs/internal/plan"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// TestNominalRatesMatchPlanConstants: the planner's static admission
// rates (plan.*RateMbps) must be the rates the Default() calibration
// implies, or the planner and the simulator would disagree about what
// saturates a NIC.
func TestNominalRatesMatchPlanConstants(t *testing.T) {
	m := Default()
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"migrate", m.MigrateSpec(0).NominalMbps, plan.MigrateRateMbps},
		{"suspend+scp", m.SuspendSpec(0, SCP).NominalMbps, plan.SuspendPushRateMbps},
		{"resume+scp", m.ResumeSpec(0, SCP).NominalMbps, plan.ResumePushRateMbps},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 1e-6*c.want {
			t.Errorf("%s nominal rate = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// RateAt and DurationAt time a transfer that sees one bandwidth for its
// whole lifetime: the closed form of what the simulator's metered
// transfer integrates, and the oracle that the spec decomposition
// reproduces the §2.3 calibration.

// RateAt returns the wire rate the transfer sustains when the network
// offers bwMbps: the offered bandwidth, capped at the nominal rate. A
// non-positive bw means "bandwidth not modeled" and yields the nominal
// rate — the compile-away path, not a stalled link.
func (s TransferSpec) RateAt(bwMbps float64) float64 {
	if bwMbps > 0 && bwMbps < s.NominalMbps {
		return bwMbps
	}
	return s.NominalMbps
}

// DurationAt returns the transfer's total duration when the network
// sustains bwMbps for its whole lifetime. Zero-volume transfers (a
// zero-memory VM) take exactly the fixed part.
func (s TransferSpec) DurationAt(bwMbps float64) time.Duration {
	rate := s.RateAt(bwMbps)
	if rate <= 0 || s.VolumeMiB <= 0 {
		return s.Fixed
	}
	return s.Fixed + secs(s.Bits()/rate)
}

// TestDurationAtNominalReproducesCalibration: at the nominal wire rate
// (or with bandwidth unmodeled, bw <= 0) the decomposition returns
// exactly the §2.3 durations — the compile-away guarantee.
func TestDurationAtNominalReproducesCalibration(t *testing.T) {
	m := Default()
	const tol = time.Millisecond
	for _, mem := range []int{0, 256, 1024, 2048} {
		cases := []struct {
			name   string
			spec   TransferSpec
			legacy time.Duration
		}{
			{"migrate", m.MigrateSpec(mem), m.Migrate(mem)},
			{"suspend+scp", m.SuspendSpec(mem, SCP), m.Suspend(mem, SCP)},
			{"suspend+rsync", m.SuspendSpec(mem, Rsync), m.Suspend(mem, Rsync)},
			{"resume+scp", m.ResumeSpec(mem, SCP), m.Resume(mem, SCP)},
		}
		for _, c := range cases {
			for _, bw := range []float64{0, -5, c.spec.NominalMbps, 1e9} {
				got := c.spec.DurationAt(bw)
				if diff := got - c.legacy; diff < -tol || diff > tol {
					t.Errorf("%s(mem=%d) at bw=%v: %v, legacy %v", c.name, mem, bw, got, c.legacy)
				}
			}
		}
	}
}

// TestDurationAtEdgeCases drives the bandwidth parameter through its
// corners: zero/negative bandwidth falls back to nominal, huge
// bandwidth is capped at nominal (the hypervisor copy loop, not the
// NIC, limits an idle fat link), a constrained link stretches only the
// wire part, and a zero-memory VM pays exactly the fixed part at any
// bandwidth.
func TestDurationAtEdgeCases(t *testing.T) {
	m := Default()
	cases := []struct {
		name string
		spec TransferSpec
		bw   float64
		want time.Duration
	}{
		{"zero bw -> nominal", m.MigrateSpec(1024), 0, m.Migrate(1024)},
		{"negative bw -> nominal", m.MigrateSpec(1024), -1, m.Migrate(1024)},
		{"huge bw capped at nominal", m.MigrateSpec(1024), 1e12, m.Migrate(1024)},
		// 1024 MiB = 8192 Mbit at 100 Mbit/s = 81.92 s + 5 s fixed.
		{"constrained link stretches wire part", m.MigrateSpec(1024), 100,
			secs(migrateBaseSec + 1024*8/100.0)},
		// Crawling link: fixed 5 s + 8192 Mbit at 1 Mbit/s.
		{"crawling link", m.MigrateSpec(1024), 1,
			secs(migrateBaseSec + 1024*8/1.0)},
		{"zero-memory VM, nominal", m.MigrateSpec(0), 0, secs(migrateBaseSec)},
		{"zero-memory VM, slow link", m.MigrateSpec(0), 1, secs(migrateBaseSec)},
		// Remote suspend fixed part carries the SCP factor: 2×5 s.
		{"suspend fixed part scales with factor", m.SuspendSpec(0, SCP), 0,
			secs(suspendBaseSec * remoteFactorSCP)},
	}
	const tol = time.Millisecond
	for _, c := range cases {
		if got := c.spec.DurationAt(c.bw); got-c.want < -tol || got-c.want > tol {
			t.Errorf("%s: DurationAt(%v) = %v, want %v", c.name, c.bw, got, c.want)
		}
	}
}

// TestAtConveniences: every spec timed at bw=0 reduces to the legacy
// method exactly.
func TestAtConveniences(t *testing.T) {
	m := Default()
	if got := m.MigrateSpec(1024).DurationAt(0); got != m.Migrate(1024) {
		t.Errorf("MigrateSpec(1024).DurationAt(0) = %v, want %v", got, m.Migrate(1024))
	}
	if m.SuspendSpec(1024, SCP).DurationAt(0) != m.Suspend(1024, SCP) {
		t.Error("SuspendSpec(…).DurationAt(0) deviates from Suspend")
	}
	if m.ResumeSpec(1024, Rsync).DurationAt(0) != m.Resume(1024, Rsync) {
		t.Error("ResumeSpec(…).DurationAt(0) deviates from Resume")
	}
	// Heterogeneous endpoints: the duration is governed by min(src,dst)
	// residual bandwidth — the caller takes the min, the model must be
	// monotone in it.
	fast, slow := m.MigrateSpec(1024).DurationAt(800), m.MigrateSpec(1024).DurationAt(math.Min(800, 50))
	if slow <= fast {
		t.Errorf("migration at min(src,dst)=50 (%v) not slower than at 800 (%v)", slow, fast)
	}
}

// TestActionTransfer: only cross-node movers carry a wire transfer,
// and the volume folds the extra dimensions via plan.TransferSize.
func TestActionTransfer(t *testing.T) {
	m := Default()
	vm := vjob.NewVM("v", "j", 1, 1024)
	cases := []struct {
		a     plan.Action
		ok    bool
		vol   int
		fixed time.Duration
		mbps  float64
		mode  Transfer
	}{
		{&plan.Migration{Machine: vm, Src: "n1", Dst: "n2"}, true, 1024, secs(migrateBaseSec), 800, Local},
		{&plan.Suspend{Machine: vm, On: "n1", To: "n2"}, true, 1024, secs(suspendBaseSec * 2), 80, SCP},
		{&plan.Suspend{Machine: vm, On: "n1", To: "n1"}, false, 0, 0, 0, Local},
		{&plan.Resume{Machine: vm, From: "n1", On: "n2"}, true, 1024, secs(resumeBaseSec * 2), 100, SCP},
		{&plan.Resume{Machine: vm, From: "n1", On: "n1"}, false, 0, 0, 0, Local},
		{&plan.Run{Machine: vm, On: "n1"}, false, 0, 0, 0, Local},
		{&plan.Stop{Machine: vm, On: "n1"}, false, 0, 0, 0, Local},
		{nil, false, 0, 0, 0, Local},
	}
	for _, c := range cases {
		spec, ok := m.ActionTransfer(c.a)
		if ok != c.ok {
			t.Errorf("%v: ok = %v, want %v", c.a, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if spec.VolumeMiB != c.vol || spec.Fixed != c.fixed || spec.Tr != c.mode {
			t.Errorf("%v: spec = %+v, want vol %d fixed %v tr %v", c.a, spec, c.vol, c.fixed, c.mode)
		}
		if math.Abs(spec.NominalMbps-c.mbps) > 1e-6*c.mbps {
			t.Errorf("%v: nominal = %v, want %v", c.a, spec.NominalMbps, c.mbps)
		}
	}

	// A net/disk-heavy VM moves a bigger volume.
	d := resources.New(1, 1024)
	d.Set(resources.NetBW, 200)
	d.Set(resources.DiskIO, 76)
	heavy := vjob.NewVMRes("h", "j", d)
	spec, ok := m.ActionTransfer(&plan.Migration{Machine: heavy, Src: "n1", Dst: "n2"})
	if !ok || spec.VolumeMiB != 1024+200+76 {
		t.Fatalf("heavy VM volume = %d, want %d", spec.VolumeMiB, 1024+200+76)
	}
}
