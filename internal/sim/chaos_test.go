package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

func rackFixture() [][]string {
	return [][]string{
		{"node000", "node001"},
		{"node002", "node003"},
		{"node004", "node005"},
	}
}

func TestPlanBursts(t *testing.T) {
	tests := []struct {
		name   string
		racks  [][]string
		opts   BurstOptions
		bursts int
		// consumed reports whether the plan may draw from rng.
		consumed bool
	}{
		{"zero count is a no-op", rackFixture(), BurstOptions{From: 100, Until: 200, Outage: 50}, 0, false},
		{"no racks is a no-op", nil, BurstOptions{Count: 3, From: 100, Until: 200}, 0, false},
		{"draws count bursts", rackFixture(), BurstOptions{Count: 4, From: 100, Until: 200, Outage: 50}, 4, true},
		{"zero-width window pins to From", rackFixture(), BurstOptions{Count: 2, From: 300, Until: 300}, 2, true},
		{"inverted window pins to From", rackFixture(), BurstOptions{Count: 2, From: 300, Until: 100}, 2, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			got := PlanBursts(rng, tc.racks, tc.opts)
			if len(got) != tc.bursts {
				t.Fatalf("bursts = %d, want %d", len(got), tc.bursts)
			}
			// A no-op plan must leave the stream untouched: the next
			// draw matches a fresh rng's first draw.
			if !tc.consumed {
				if got, want := rng.Float64(), rand.New(rand.NewSource(1)).Float64(); got != want {
					t.Fatalf("no-op plan consumed rng: next draw %v, want %v", got, want)
				}
			}
			for i, b := range got {
				if i > 0 && b.At < got[i-1].At {
					t.Fatalf("bursts not time-sorted: %v", got)
				}
				lo, hi := tc.opts.From, tc.opts.Until
				if hi <= lo {
					hi = lo
				}
				if b.At < lo || (hi > lo && b.At >= hi) || (hi == lo && b.At != lo) {
					t.Fatalf("burst at %v outside [%v, %v)", b.At, lo, hi)
				}
				if tc.opts.Outage > 0 && b.RecoverAt != b.At+tc.opts.Outage {
					t.Fatalf("recover at %v, want %v", b.RecoverAt, b.At+tc.opts.Outage)
				}
				if tc.opts.Outage == 0 && b.RecoverAt != 0 {
					t.Fatalf("outage 0 must never recover, got %v", b.RecoverAt)
				}
				if len(b.Nodes) == 0 {
					t.Fatal("burst with no nodes")
				}
			}
		})
	}
}

// TestPlanBurstsDeterministic pins seeded reproducibility and checks
// the copied node slices are independent of the rack fixture.
func TestPlanBurstsDeterministic(t *testing.T) {
	opts := BurstOptions{Count: 3, From: 10, Until: 500, Outage: 60}
	a := PlanBursts(rand.New(rand.NewSource(9)), rackFixture(), opts)
	b := PlanBursts(rand.New(rand.NewSource(9)), rackFixture(), opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%v\n%v", a, b)
	}
	racks := rackFixture()
	c := PlanBursts(rand.New(rand.NewSource(9)), racks, opts)
	racks[0][0] = "mutated"
	for _, burst := range c {
		for _, n := range burst.Nodes {
			if n == "mutated" {
				t.Fatal("burst aliases the caller's rack slice")
			}
		}
	}
}

func TestPlanFlaps(t *testing.T) {
	tests := []struct {
		name string
		opts FlapOptions
		noop bool
	}{
		{"no nodes is a no-op", FlapOptions{From: 0, Until: 100, MeanDown: 5, MeanUp: 10}, true},
		{"empty window is a no-op", FlapOptions{Nodes: []string{"a"}, From: 100, Until: 100, MeanDown: 5, MeanUp: 10}, true},
		{"two flappers", FlapOptions{Nodes: []string{"a", "b"}, From: 50, Until: 500, MeanDown: 10, MeanUp: 30}, false},
		{"fast flapper", FlapOptions{Nodes: []string{"a"}, From: 0, Until: 1000, MeanDown: 1, MeanUp: 1}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			got := PlanFlaps(rng, tc.opts)
			if tc.noop {
				if len(got) != 0 {
					t.Fatalf("plan = %v, want none", got)
				}
				if next, want := rng.Float64(), rand.New(rand.NewSource(3)).Float64(); next != want {
					t.Fatal("no-op plan consumed rng")
				}
				return
			}
			if len(got) == 0 {
				t.Fatal("no transitions planned")
			}
			state := map[string]bool{} // currently down?
			seen := map[string]bool{}
			for i, tr := range got {
				if i > 0 && tr.At < got[i-1].At {
					t.Fatalf("transitions not time-sorted: %v", got)
				}
				if tr.At < tc.opts.From || tr.At > tc.opts.Until {
					t.Fatalf("transition at %v outside [%v, %v]", tr.At, tc.opts.From, tc.opts.Until)
				}
				if !seen[tr.Node] && !tr.Down {
					t.Fatalf("node %s recovered before failing", tr.Node)
				}
				if seen[tr.Node] && state[tr.Node] == tr.Down {
					t.Fatalf("node %s: consecutive down=%v transitions", tr.Node, tr.Down)
				}
				seen[tr.Node] = true
				state[tr.Node] = tr.Down
			}
			// Every flapped node must end healthy: the window closes
			// with a recovery edge.
			for n, down := range state {
				if down {
					t.Fatalf("node %s left down at the end of the plan", n)
				}
			}
		})
	}
}

func TestPlanFlapsAlternates(t *testing.T) {
	got := PlanFlaps(rand.New(rand.NewSource(5)), FlapOptions{
		Nodes: []string{"x"}, From: 0, Until: 2000, MeanDown: 5, MeanUp: 20,
	})
	if len(got) < 2 {
		t.Fatalf("want several transitions, got %v", got)
	}
	for i, tr := range got {
		wantDown := i%2 == 0
		if tr.Down != wantDown {
			t.Fatalf("transition %d direction = %v, want %v (%v)", i, tr.Down, wantDown, got)
		}
	}
}

func TestEventLossRate(t *testing.T) {
	tests := []struct {
		name string
		loss EventLoss
		now  float64
		want float64
	}{
		{"before window", EventLoss{From: 100, Until: 200}, 99.9, 0},
		{"window start inclusive", EventLoss{From: 100, Until: 200}, 100, 0.5},
		{"inside window", EventLoss{From: 100, Until: 200}, 150, 0.5},
		{"window end exclusive", EventLoss{From: 100, Until: 200}, 200, 0},
		{"after window", EventLoss{From: 100, Until: 200}, 1e9, 0},
		{"zero-length window is permanent", EventLoss{}, 12345, 0.5},
		{"inverted window is permanent", EventLoss{From: 200, Until: 100}, 50, 0.5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.loss.Rate(tc.now); got != tc.want {
				t.Fatalf("Rate(%v) = %v, want %v", tc.now, got, tc.want)
			}
		})
	}
}

// TestEventLossDropperStreamCompatible pins the FailureStorm-style
// stream contract: one draw per offered event whatever the rate, so a
// dropper whose window never opens is a behavioral no-op with the
// identical rng consumption of a lossy one, and adding a window never
// shifts the stream.
func TestEventLossDropperStreamCompatible(t *testing.T) {
	times := []float64{0, 50, 100, 150, 199, 200, 500}
	ref := rand.New(rand.NewSource(11))
	idleRng, lossyRng := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	idle := EventLoss{From: 1000, Until: 2000}.Dropper(idleRng)
	lossy := EventLoss{From: 100, Until: 200}.Dropper(lossyRng)
	for _, now := range times {
		if idle(now) {
			t.Fatalf("dropper dropped at t=%v, before its window", now)
		}
		v := ref.Float64()
		want := now >= 100 && now < 200 && v < lossFraction
		if got := lossy(now); got != want {
			t.Fatalf("t=%v: dropped %v, want %v", now, got, want)
		}
	}
	// Both consumed one variate per event: their rngs still agree.
	if a, b, r := idleRng.Float64(), lossyRng.Float64(), ref.Float64(); a != b || a != r {
		t.Fatalf("streams diverged: %v %v %v", a, b, r)
	}
}

// TestEventLossDropperFraction checks the drop frequency tracks the
// configured fraction inside the window.
func TestEventLossDropperFraction(t *testing.T) {
	drop := EventLoss{From: 0, Until: 1e9}.Dropper(rand.New(rand.NewSource(2)))
	n, dropped := 10000, 0
	for i := 0; i < n; i++ {
		if drop(100) {
			dropped++
		}
	}
	if f := float64(dropped) / float64(n); f < 0.45 || f > 0.55 {
		t.Fatalf("observed drop fraction %v, want ~0.5", f)
	}
}
