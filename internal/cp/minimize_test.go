package cp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file pins Minimize's contract with the callers that drive it:
// the bound OnSolution returns, the SharedBound it adopts per restart,
// the context it checks before every dive, and the shuffle stream one
// call owns.

// TestMinimizeExplicitCallbackIsTheDefault: an OnSolution returning
// Objective-1 is exactly what a nil callback does — the same nodes,
// fails, solutions and optimum on every oracle model.
func TestMinimizeExplicitCallbackIsTheDefault(t *testing.T) {
	for seed := int64(0); seed < oracleSeeds; seed++ {
		sp := randomOracleSpec(rand.New(rand.NewSource(seed)))
		type outcome struct {
			objective, calls        int
			nodes, fails, solutions int64
			err                     error
		}
		run := func(explicit bool) outcome {
			s, vars, obj := sp.build()
			var o outcome
			opts := Options{Vars: vars, FirstFail: true, PreferValue: true}
			if explicit {
				opts.OnSolution = func(sol Solution) int {
					o.calls++
					return sol.Objective - 1
				}
			}
			best, err := s.Minimize(obj, opts)
			o.objective, o.err = best.Objective, err
			o.nodes, o.fails, o.solutions, _ = s.Stats()
			return o
		}
		def, cb := run(false), run(true)
		if int64(cb.calls) != cb.solutions {
			t.Fatalf("seed %d: OnSolution ran %d times for %d solutions", seed, cb.calls, cb.solutions)
		}
		cb.calls = 0
		if def != cb {
			t.Fatalf("seed %d: nil callback %+v, explicit Objective-1 %+v", seed, def, cb)
		}
	}
}

// TestMinimizeAdoptsSharedBoundAtRestart: a SharedBound the callback
// tightens below its own return value is what the next restart cuts
// the objective at. A propagator on the objective records its upper
// bound on the first propagation of every dive.
func TestMinimizeAdoptsSharedBoundAtRestart(t *testing.T) {
	watched := 0
	for seed := int64(1); seed <= 8; seed++ {
		s, vars, obj := buildBinPacking(seed, 8, 4)
		shared := NewIncumbent(obj.Max())
		var want, got []int
		fresh := false // a restart has cut obj and not yet propagated
		s.Post(&FuncConstraint{On: []*IntVar{obj}, Run: func(*Solver) error {
			if fresh {
				got, fresh = append(got, obj.Max()), false
			}
			return nil
		}})
		_, err := s.Minimize(obj, Options{Vars: vars, FirstFail: true, PreferValue: true, SharedBound: shared,
			OnSolution: func(sol Solution) int {
				shared.Tighten(sol.Objective - 2)
				want, fresh = append(want, shared.Bound()), true
				return sol.Objective - 1
			}})
		if err != nil && !errors.Is(err, ErrFailed) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(want) == 0 {
			continue // infeasible: no restart to watch
		}
		// The last cut may lie below the floor: RemoveAbove fails before
		// anything propagates.
		if len(got) < len(want)-1 || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("seed %d: restarts cut the objective at %v, the shared bound was %v", seed, got, want)
		}
		watched += len(got)
	}
	if watched == 0 {
		t.Fatal("no model restarted after a solution")
	}
}

// TestMinimizeCallbackBelowFloorEnds: a callback returning a bound
// below the objective's floor ends the search with the last solution
// and a nil error, without another dive.
func TestMinimizeCallbackBelowFloorEnds(t *testing.T) {
	s, vars, obj := buildBinPacking(3, 8, 4)
	calls, last := 0, Solution{}
	best, err := s.Minimize(obj, Options{Vars: vars, FirstFail: true, OnSolution: func(sol Solution) int {
		calls++
		last = sol
		return -1 // below the objective's floor of 0
	}})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if calls != 1 || best.Objective != last.Objective || !sameValues(best, last, vars) {
		t.Fatalf("%d calls; returned %+v, the callback saw %+v", calls, best, last)
	}
}

// TestMinimizeCanceledInCallbackStopsBeforeNextDive: a context canceled
// inside OnSolution is seen before the next restart searches a node.
func TestMinimizeCanceledInCallbackStopsBeforeNextDive(t *testing.T) {
	s, vars, obj := buildBinPacking(3, 8, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var atCancel int64
	var seen Solution
	best, err := s.Minimize(obj, Options{Ctx: ctx, Vars: vars, FirstFail: true, OnSolution: func(sol Solution) int {
		atCancel, _, _, _ = s.Stats()
		seen = sol
		cancel()
		return sol.Objective - 1
	}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if nodes, _, _, _ := s.Stats(); nodes != atCancel {
		t.Fatalf("searched %d nodes after the cancel", nodes-atCancel)
	}
	if best.Objective != seen.Objective || !sameValues(best, seen, vars) {
		t.Fatalf("returned %+v, want the solution the callback saw %+v", best, seen)
	}
}

// TestMinimizeShuffleSeedIsDeterministic: two solvers over the same
// model with the same ShuffleSeed search node for node alike — the
// same solutions at the same node counts, the same totals — and the
// seed does move the search on some model.
func TestMinimizeShuffleSeedIsDeterministic(t *testing.T) {
	trace := func(seed, shuffle int64) string {
		s, vars, obj := buildBinPacking(seed, 10, 5)
		out := ""
		_, err := s.Minimize(obj, Options{Vars: vars, FirstFail: true, PreferValue: true, ShuffleSeed: shuffle,
			OnSolution: func(sol Solution) int {
				nodes, fails, _, _ := s.Stats()
				out += fmt.Sprintf("%d/%d:%d", nodes, fails, sol.Objective)
				for _, v := range vars {
					out += fmt.Sprintf(",%d", sol.MustValue(v))
				}
				out += "\n"
				return sol.Objective - 1
			}})
		if err != nil && !errors.Is(err, ErrFailed) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nodes, fails, solutions, props := s.Stats()
		return out + fmt.Sprintf("end %d %d %d %d", nodes, fails, solutions, props)
	}
	moved := false
	for seed := int64(1); seed <= 6; seed++ {
		a, b := trace(seed, 7), trace(seed, 7)
		if a != b {
			t.Fatalf("seed %d: equal shuffle seeds searched apart:\n%s\n--\n%s", seed, a, b)
		}
		moved = moved || a != trace(seed, 0)
	}
	if !moved {
		t.Fatal("ShuffleSeed 7 searched like the unshuffled order on every model")
	}
}

// sameValues reports whether a and b assign every var alike.
func sameValues(a, b Solution, vars []*IntVar) bool {
	for _, v := range vars {
		if a.MustValue(v) != b.MustValue(v) {
			return false
		}
	}
	return true
}
