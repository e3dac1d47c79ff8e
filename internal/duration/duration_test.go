package duration

import (
	"errors"
	"testing"
	"time"

	"cwcs/internal/plan"
	"cwcs/internal/vjob"
)

func TestConstantsMatchPaper(t *testing.T) {
	m := Default()
	// Booting a VM takes around 6 seconds; a clean shutdown ~25 s.
	if m.Boot() != 6*time.Second {
		t.Fatalf("boot = %v", m.Boot())
	}
	if m.Shutdown() != 25*time.Second {
		t.Fatalf("shutdown = %v", m.Shutdown())
	}
	// Migrating a 2 GiB VM takes up to ~26 seconds.
	if d := m.Migrate(2048); d < 20*time.Second || d > 30*time.Second {
		t.Fatalf("migrate(2048) = %v, want ~26s", d)
	}
	// Resuming a 2 GiB VM remotely takes up to ~3 minutes.
	if d := m.Resume(2048, SCP); d < 2*time.Minute || d > 4*time.Minute {
		t.Fatalf("remote resume(2048) = %v, want ~3min", d)
	}
}

func TestLinearInMemory(t *testing.T) {
	m := Default()
	sizes := []int{512, 1024, 2048}
	for _, f := range []func(int) time.Duration{
		m.Migrate,
		func(mem int) time.Duration { return m.Suspend(mem, Local) },
		func(mem int) time.Duration { return m.Resume(mem, Local) },
	} {
		d1, d2, d3 := f(sizes[0]), f(sizes[1]), f(sizes[2])
		if !(d1 < d2 && d2 < d3) {
			t.Fatalf("not increasing in memory: %v %v %v", d1, d2, d3)
		}
		// Linearity: d3-d2 == 2*(d2-d1) within rounding.
		gap21 := d2 - d1
		gap32 := d3 - d2
		if diff := gap32 - 2*gap21; diff < -time.Millisecond || diff > time.Millisecond {
			t.Fatalf("not linear: gaps %v %v", gap21, gap32)
		}
	}
}

func TestRemoteRoughlyTwiceLocal(t *testing.T) {
	m := Default()
	for _, mem := range []int{512, 1024, 2048} {
		local := m.Suspend(mem, Local)
		scp := m.Suspend(mem, SCP)
		rsync := m.Suspend(mem, Rsync)
		if ratio := float64(scp) / float64(local); ratio < 1.8 || ratio > 2.2 {
			t.Fatalf("scp/local suspend ratio = %.2f", ratio)
		}
		if rsync >= scp {
			t.Fatalf("rsync (%v) should be slightly cheaper than scp (%v)", rsync, scp)
		}
		if rsync <= local {
			t.Fatal("rsync should cost more than local")
		}
	}
}

func TestDeceleration(t *testing.T) {
	m := Default()
	if m.Deceleration(Local) != 1.3 {
		t.Fatalf("local decel = %v", m.Deceleration(Local))
	}
	if m.Deceleration(SCP) != 1.5 || m.Deceleration(Rsync) != 1.5 {
		t.Fatal("remote decel != 1.5")
	}
}

func TestActionDuration(t *testing.T) {
	m := Default()
	vm := vjob.NewVM("v", "j", 1, 1024)
	cases := []struct {
		a    plan.Action
		want time.Duration
		tr   Transfer
	}{
		{&plan.Run{Machine: vm, On: "n1"}, m.Boot(), Local},
		{&plan.Stop{Machine: vm, On: "n1"}, m.Shutdown(), Local},
		{&plan.Migration{Machine: vm, Src: "n1", Dst: "n2"}, m.Migrate(1024), Local},
		{&plan.Suspend{Machine: vm, On: "n1", To: "n1"}, m.Suspend(1024, Local), Local},
		{&plan.Suspend{Machine: vm, On: "n1", To: "n2"}, m.Suspend(1024, SCP), SCP},
		{&plan.Resume{Machine: vm, From: "n1", On: "n1"}, m.Resume(1024, Local), Local},
		{&plan.Resume{Machine: vm, From: "n1", On: "n2"}, m.Resume(1024, SCP), SCP},
	}
	for _, tc := range cases {
		d, tr, err := m.ActionDuration(tc.a)
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.a, err)
			continue
		}
		if d != tc.want || tr != tc.tr {
			t.Errorf("%s: (%v,%v), want (%v,%v)", tc.a, d, tr, tc.want, tc.tr)
		}
	}
}

func TestTransferStrings(t *testing.T) {
	for tr, want := range map[Transfer]string{
		Local: "local", SCP: "local+scp", Rsync: "local+rsync", Transfer(9): "invalid",
	} {
		if tr.String() != want {
			t.Errorf("%d.String() = %q, want %q", tr, tr.String(), want)
		}
	}
}

// TestActionDurationUnknownActionError: an unmodeled action used to
// panic the caller (and with it the daemon); it now reports a typed
// error the driver can surface as a failed action.
func TestActionDurationUnknownActionError(t *testing.T) {
	_, _, err := Default().ActionDuration(nil)
	var ue *UnknownActionError
	if !errors.As(err, &ue) {
		t.Fatalf("ActionDuration(nil) err = %v, want *UnknownActionError", err)
	}
	if ue.Error() == "" {
		t.Fatal("empty error message")
	}
	if _, _, err := Default().ActionDuration(unknownAction{}); !errors.As(err, &ue) {
		t.Fatalf("ActionDuration(unknownAction) err = %v, want *UnknownActionError", err)
	}
}

// unknownAction is an action outside the five kinds; its VM() and
// every other method it does not override panic on the nil embedded
// Action.
type unknownAction struct{ plan.Action }

func (unknownAction) Kind() plan.Kind          { return plan.Kind(-1) }
func (unknownAction) Nodes() (from, to string) { return "", "" }

// TestCalibrationPinned holds every duration of the §2.3 calibration
// to the nanosecond, including the float rounding of its runtime
// arithmetic (a 1 MiB rsync suspend is 9594999999 ns, not 9.595 s):
// simulated timelines, goldens and transcripts depend on each one.
func TestCalibrationPinned(t *testing.T) {
	m := Default()
	if m.Boot() != 6000000000 || m.Shutdown() != 25000000000 {
		t.Fatalf("boot %d, shutdown %d", m.Boot(), m.Shutdown())
	}
	if m.Deceleration(Local) != 1.3 || m.Deceleration(SCP) != 1.5 || m.Deceleration(Rsync) != 1.5 {
		t.Fatal("deceleration moved")
	}
	// Suspend and resume are listed per transfer: local, scp, rsync.
	for _, c := range []struct {
		mem             int
		migrate         time.Duration
		suspend, resume [3]time.Duration
	}{
		{0, 5000000000, [3]time.Duration{5000000000, 10000000000, 9500000000}, [3]time.Duration{5000000000, 10000000000, 9500000000}},
		{1, 5010000000, [3]time.Duration{5050000000, 10100000000, 9594999999}, [3]time.Duration{5040000000, 10080000000, 9575999999}},
		{512, 10120000000, [3]time.Duration{30600000000, 61200000000, 58140000000}, [3]time.Duration{25480000000, 50960000000, 48412000000}},
		{1000, 15000000000, [3]time.Duration{55000000000, 110000000000, 104500000000}, [3]time.Duration{45000000000, 90000000000, 85500000000}},
		{1024, 15240000000, [3]time.Duration{56200000000, 112400000000, 106780000000}, [3]time.Duration{45960000000, 91920000000, 87324000000}},
		{2048, 25480000000, [3]time.Duration{107400000000, 214800000000, 204060000000}, [3]time.Duration{86920000000, 173840000000, 165148000000}},
		{4096, 45960000000, [3]time.Duration{209800000000, 419600000000, 398620000000}, [3]time.Duration{168840000000, 337680000000, 320796000000}},
		{7919, 84190000000, [3]time.Duration{400950000000, 801900000000, 761805000000}, [3]time.Duration{321760000000, 643520000000, 611343999999}},
	} {
		if got := m.Migrate(c.mem); got != c.migrate {
			t.Errorf("Migrate(%d) = %d, want %d", c.mem, got, c.migrate)
		}
		for i, tr := range []Transfer{Local, SCP, Rsync} {
			if got := m.Suspend(c.mem, tr); got != c.suspend[i] {
				t.Errorf("Suspend(%d, %v) = %d, want %d", c.mem, tr, got, c.suspend[i])
			}
			if got := m.Resume(c.mem, tr); got != c.resume[i] {
				t.Errorf("Resume(%d, %v) = %d, want %d", c.mem, tr, got, c.resume[i])
			}
		}
	}
	// The decompositions: fixed part and nominal rate per transfer.
	for _, c := range []struct {
		tr                  Transfer
		suspFixed, resFixed time.Duration
		suspMbps, resMbps   float64
	}{
		{Local, 5000000000, 5000000000, 160, 200},
		{SCP, 10000000000, 10000000000, 80, 100},
		{Rsync, 9500000000, 9500000000, 84.21052631578948, 105.26315789473685},
	} {
		if s := m.MigrateSpec(7); s.Fixed != 5000000000 || s.NominalMbps != 800 || s.VolumeMiB != 7 || s.Tr != Local {
			t.Errorf("MigrateSpec(7) = %+v", s)
		}
		if s := m.SuspendSpec(7, c.tr); s.Fixed != c.suspFixed || s.NominalMbps != c.suspMbps || s.VolumeMiB != 7 || s.Tr != c.tr {
			t.Errorf("SuspendSpec(7, %v) = %+v, want fixed %d at %v", c.tr, s, c.suspFixed, c.suspMbps)
		}
		if s := m.ResumeSpec(7, c.tr); s.Fixed != c.resFixed || s.NominalMbps != c.resMbps || s.VolumeMiB != 7 || s.Tr != c.tr {
			t.Errorf("ResumeSpec(7, %v) = %+v, want fixed %d at %v", c.tr, s, c.resFixed, c.resMbps)
		}
	}
}
