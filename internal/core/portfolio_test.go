package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cwcs/internal/vjob"
)

// portfolioProblem builds a consolidation instance with real slack, so
// the portfolio has an actual search to race.
func portfolioProblem(seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	nNodes := 4 + rng.Intn(4)
	c := mkCluster(nNodes, 2, 4096)
	target := map[string]vjob.State{}
	for j := 0; j < 2+rng.Intn(3); j++ {
		name := fmt.Sprintf("j%d", j)
		vms := make([]*vjob.VM, 1+rng.Intn(3))
		for k := range vms {
			vms[k] = vjob.NewVM(fmt.Sprintf("%s-%d", name, k), name, rng.Intn(2), 256*(1+rng.Intn(8)))
			c.AddVM(vms[k])
		}
		vjob.NewVJob(name, j, vms...)
		for _, v := range vms {
			if rng.Intn(3) > 0 {
				for _, n := range c.Nodes() {
					if c.Fits(v, n.Name) {
						_ = c.SetRunning(v.Name, n.Name)
						break
					}
				}
			}
		}
		target[name] = vjob.Running
	}
	return Problem{Src: c, Target: target}
}

// TestStrategiesLineup pins the portfolio lineup for every width up to
// six, and requires that no two workers search in the same order: two
// entries with the same FirstFail, PreferValue and ShuffleSeed would
// explore the same tree node for node, and one of them would be a
// wasted core.
func TestStrategiesLineup(t *testing.T) {
	want := []string{"base", "firstfail", "prefer", "shuffle#3", "shuffle#4", "shuffle#5"}
	for n := 1; n <= len(want); n++ {
		lineup := strategies(n)
		var labels []string
		type ordering struct {
			firstFail, prefer bool
			seed              int64
		}
		seen := map[ordering]string{}
		for _, st := range lineup {
			labels = append(labels, st.Label)
			o := ordering{st.FirstFail, st.PreferValue, st.ShuffleSeed}
			if prev, ok := seen[o]; ok {
				t.Fatalf("strategies(%d): %s and %s search in the same order %+v", n, prev, st.Label, o)
			}
			seen[o] = st.Label
		}
		if !slices.Equal(labels, want[:n]) {
			t.Fatalf("strategies(%d) = %v, want %v", n, labels, want[:n])
		}
	}
	if base := strategies(1)[0]; !base.FirstFail || !base.PreferValue || base.ShuffleSeed != 0 {
		t.Fatalf("the first worker is %+v, want the paper's first-fail, prefer-current-host search", base)
	}
}

// TestPortfolioOptimizerSolves: the parallel portfolio produces a
// viable, validated, proven-optimal plan no worse than the FFD
// baseline — the same contract a lineup of one honours. (Exact cost
// agreement across widths is only asserted where the optimum is
// unique, see TestPortfolioWorkerWidths: the loop's aggressive
// action-sum tightening makes the chosen witness order-dependent.)
func TestPortfolioOptimizerSolves(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := portfolioProblem(seed)
		ffd, ferr := FFDPlan(p)
		res, err := Optimizer{Workers: 4, Timeout: 5 * time.Second}.Solve(p)
		if err != nil {
			if errors.Is(err, ErrNoViableConfiguration) && ferr != nil {
				continue // genuinely infeasible either way
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Dst.Viable() {
			t.Fatalf("seed %d: destination not viable: %v", seed, res.Dst.Violations())
		}
		if verr := res.Plan.Validate(); verr != nil {
			t.Fatalf("seed %d: plan invalid: %v", seed, verr)
		}
		if !res.Optimal {
			t.Fatalf("seed %d: no timeout pressure, yet optimality not proven", seed)
		}
		if ferr == nil && res.Cost > ffd.Cost {
			t.Fatalf("seed %d: portfolio cost %d worse than FFD %d", seed, res.Cost, ffd.Cost)
		}
	}
}

// TestPortfolioWorkerWidths: every width solves the same instance and
// reports a cost within the sequential search's proof bound.
func TestPortfolioWorkerWidths(t *testing.T) {
	p := portfolioProblem(3)
	seq, err := Optimizer{Workers: 1, Timeout: 5 * time.Second}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		res, err := Optimizer{Workers: w, Timeout: 5 * time.Second}.Solve(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Optimal || !seq.Optimal {
			t.Fatalf("workers=%d: optimality not proven (seq=%v par=%v)", w, seq.Optimal, res.Optimal)
		}
		if res.Cost != seq.Cost {
			// Both proved optimality w.r.t. the action-sum bound; on
			// this instance the optimum is unique, so they must agree.
			t.Fatalf("workers=%d: cost %d != sequential %d", w, res.Cost, seq.Cost)
		}
	}
}

// TestSolveContextCanceled: a canceled context falls back to the FFD
// seed (like an expired timeout) instead of erroring.
func TestSolveContextCanceled(t *testing.T) {
	c := mkCluster(2, 1, 4096)
	c.AddVM(vjob.NewVM("v", "j", 1, 512))
	if err := c.SetSleeping("v", "n01"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}}
	for _, w := range []int{1, 4} {
		res, err := Optimizer{Workers: w}.SolveContext(ctx, p)
		if err != nil {
			t.Fatalf("workers=%d: err = %v", w, err)
		}
		if res.Optimal {
			t.Fatalf("workers=%d: canceled search must not claim optimality", w)
		}
		if res.Dst.StateOf("v") != vjob.Running || !res.Dst.Viable() {
			t.Fatalf("workers=%d: fallback result unusable", w)
		}
	}
}

// TestSolveContextCanceledNoSeed: with no heuristic fallback either,
// cancellation surfaces as ErrNoViableConfiguration.
func TestSolveContextCanceledNoSeed(t *testing.T) {
	c := mkCluster(1, 1, 4096)
	c.AddVM(vjob.NewVM("a", "j", 1, 512))
	c.AddVM(vjob.NewVM("b", "j", 1, 512))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Problem{Src: c, Target: map[string]vjob.State{"j": vjob.Running}}
	for _, w := range []int{1, 4} {
		o := Optimizer{Workers: w}
		if _, err := o.SolveContext(ctx, p); !errors.Is(err, ErrNoViableConfiguration) {
			t.Fatalf("workers=%d: err = %v, want ErrNoViableConfiguration", w, err)
		}
	}
}

// TestPortfolioRespectsRules: placement rules hold under every worker
// width.
func TestPortfolioRespectsRules(t *testing.T) {
	c := mkCluster(4, 2, 4096)
	for i := 0; i < 3; i++ {
		v := vjob.NewVM(fmt.Sprintf("ha-%d", i), "ha", 1, 1024)
		c.AddVM(v)
		mustRun(t, c, v.Name, "n00")
	}
	p := Problem{
		Src:    c,
		Target: map[string]vjob.State{"ha": vjob.Running},
		Rules:  []PlacementRule{Spread{VMs: []string{"ha-0", "ha-1", "ha-2"}}},
	}
	for _, w := range []int{1, 4} {
		res, err := Optimizer{Workers: w, Timeout: 5 * time.Second}.Solve(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		hosts := map[string]bool{}
		for i := 0; i < 3; i++ {
			hosts[res.Dst.HostOf(fmt.Sprintf("ha-%d", i))] = true
		}
		if len(hosts) != 3 {
			t.Fatalf("workers=%d: spread violated: %v", w, hosts)
		}
	}
}
