package cp

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// This file is the oracle suite: small random models (≤6 variables,
// ≤5 values) whose full assignment space a brute-force enumerator can
// check, asserting that a search for one solution (solveOne) finds one
// iff one exists and that Minimize returns the true optimum.

// neqSpec is x != y + offset over variable indices.
type neqSpec struct {
	x, y, offset int
}

// packSpec is a Packing instance over all variables.
type packSpec struct {
	weights  []int
	capacity []int
}

// oracleSpec is a randomly generated model small enough to enumerate.
type oracleSpec struct {
	doms    [][]int // per variable: initial domain (values in [0,5))
	neqs    []neqSpec
	allDiff []int // variable indices under an AllDifferent, if ≥2
	pack    *packSpec
	coefs   []int // objective = sum coefs[i]*x[i], coefs ≥ 0
}

const oracleMaxValue = 5

func randomOracleSpec(rng *rand.Rand) oracleSpec {
	nvars := 2 + rng.Intn(5) // 2..6
	sp := oracleSpec{doms: make([][]int, nvars), coefs: make([]int, nvars)}
	for i := range sp.doms {
		size := 1 + rng.Intn(oracleMaxValue)
		seen := map[int]bool{}
		for len(seen) < size {
			seen[rng.Intn(oracleMaxValue)] = true
		}
		for v := 0; v < oracleMaxValue; v++ {
			if seen[v] {
				sp.doms[i] = append(sp.doms[i], v)
			}
		}
		sp.coefs[i] = rng.Intn(4)
	}
	for k := rng.Intn(4); k > 0; k-- {
		x, y := rng.Intn(nvars), rng.Intn(nvars)
		if x == y {
			continue
		}
		sp.neqs = append(sp.neqs, neqSpec{x: x, y: y, offset: rng.Intn(3) - 1})
	}
	if rng.Intn(2) == 0 && nvars >= 3 {
		perm := rng.Perm(nvars)
		sp.allDiff = perm[:2+rng.Intn(nvars-1)]
	}
	if rng.Intn(2) == 0 {
		ps := &packSpec{
			weights:  make([]int, nvars),
			capacity: make([]int, oracleMaxValue),
		}
		for i := range ps.weights {
			ps.weights[i] = rng.Intn(3)
		}
		for b := range ps.capacity {
			ps.capacity[b] = 1 + rng.Intn(4)
		}
		sp.pack = ps
	}
	return sp
}

// build instantiates the spec on a fresh solver.
func (sp oracleSpec) build() (*Solver, []*IntVar, *IntVar) {
	s := NewSolver()
	vars := make([]*IntVar, len(sp.doms))
	for i, dom := range sp.doms {
		vars[i] = s.NewEnumVar(fmt.Sprintf("x%d", i), dom)
	}
	for _, n := range sp.neqs {
		s.Post(&NotEqualOffset{X: vars[n.x], Y: vars[n.y], Offset: n.offset})
	}
	if len(sp.allDiff) >= 2 {
		items := make([]*IntVar, len(sp.allDiff))
		for i, idx := range sp.allDiff {
			items[i] = vars[idx]
		}
		s.Post(&AllDifferent{Items: items})
	}
	if sp.pack != nil {
		s.Post(&Packing{
			Name:     "oracle",
			Items:    vars,
			Weights:  sp.pack.weights,
			Capacity: sp.pack.capacity,
		})
	}
	maxObj := 0
	for i, dom := range sp.doms {
		maxObj += sp.coefs[i] * dom[len(dom)-1]
	}
	obj := s.NewIntVar("obj", 0, maxObj)
	s.Post(weightedSum(vars, sp.coefs, obj))
	return s, vars, obj
}

// weightedSum keeps obj's bounds consistent with sum coefs[i]*vars[i]
// (coefficients must be non-negative).
func weightedSum(vars []*IntVar, coefs []int, obj *IntVar) Constraint {
	return &FuncConstraint{On: append([]*IntVar{obj}, vars...), Run: func(s *Solver) error {
		lo, hi := 0, 0
		for i, v := range vars {
			lo += coefs[i] * v.Min()
			hi += coefs[i] * v.Max()
		}
		if err := s.RemoveBelow(obj, lo); err != nil {
			return err
		}
		return s.RemoveAbove(obj, hi)
	}}
}

// satisfied checks a full assignment against every constraint.
func (sp oracleSpec) satisfied(assign []int) bool {
	for _, n := range sp.neqs {
		if assign[n.x] == assign[n.y]+n.offset {
			return false
		}
	}
	for i, a := range sp.allDiff {
		for _, b := range sp.allDiff[i+1:] {
			if assign[a] == assign[b] {
				return false
			}
		}
	}
	if sp.pack != nil {
		loads := make([]int, len(sp.pack.capacity))
		for i, bin := range assign {
			loads[bin] += sp.pack.weights[i]
		}
		for b, load := range loads {
			if load > sp.pack.capacity[b] {
				return false
			}
		}
	}
	return true
}

func (sp oracleSpec) objective(assign []int) int {
	obj := 0
	for i, v := range assign {
		obj += sp.coefs[i] * v
	}
	return obj
}

// enumerate brute-forces the assignment space: whether any solution
// exists and the minimal objective among solutions.
func (sp oracleSpec) enumerate() (feasible bool, minObj int) {
	assign := make([]int, len(sp.doms))
	var rec func(i int)
	rec = func(i int) {
		if i == len(sp.doms) {
			if sp.satisfied(assign) {
				if obj := sp.objective(assign); !feasible || obj < minObj {
					minObj = obj
				}
				feasible = true
			}
			return
		}
		for _, v := range sp.doms[i] {
			assign[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return feasible, minObj
}

// checkWitness verifies a returned solution against the spec.
func (sp oracleSpec) checkWitness(t *testing.T, vars []*IntVar, sol Solution) []int {
	t.Helper()
	assign := make([]int, len(vars))
	for i, v := range vars {
		assign[i] = sol.MustValue(v)
		found := false
		for _, d := range sp.doms[i] {
			if d == assign[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("x%d = %d outside its initial domain %v", i, assign[i], sp.doms[i])
		}
	}
	if !sp.satisfied(assign) {
		t.Fatalf("witness %v violates the model", assign)
	}
	return assign
}

const oracleSeeds = 60

// TestOracleSolve: solveOne finds a solution iff the brute force does.
func TestOracleSolve(t *testing.T) {
	for seed := int64(0); seed < oracleSeeds; seed++ {
		sp := randomOracleSpec(rand.New(rand.NewSource(seed)))
		feasible, _ := sp.enumerate()

		s, vars, _ := sp.build()
		sol, err := solveOne(s, Options{Vars: vars, FirstFail: true})
		if feasible {
			if err != nil {
				t.Fatalf("seed %d: solveOne failed on feasible model: %v", seed, err)
			}
			sp.checkWitness(t, vars, sol)
		} else if !errors.Is(err, ErrFailed) {
			t.Fatalf("seed %d: solveOne = %v on infeasible model, want ErrFailed", seed, err)
		}
	}
}

// TestOracleMinimize: Minimize returns the brute-force optimum with a
// proof (nil error).
func TestOracleMinimize(t *testing.T) {
	for seed := int64(0); seed < oracleSeeds; seed++ {
		sp := randomOracleSpec(rand.New(rand.NewSource(seed)))
		feasible, minObj := sp.enumerate()

		s, vars, obj := sp.build()
		best, err := s.Minimize(obj, Options{Vars: vars, FirstFail: true, PreferValue: true})
		if feasible {
			if err != nil {
				t.Fatalf("seed %d: Minimize = %v, want proven optimum", seed, err)
			}
			if best.Objective != minObj {
				t.Fatalf("seed %d: optimum = %d, brute force says %d", seed, best.Objective, minObj)
			}
			assign := sp.checkWitness(t, vars, best)
			if sp.objective(assign) != minObj {
				t.Fatalf("seed %d: witness cost %d != optimum %d", seed, sp.objective(assign), minObj)
			}
		} else if !errors.Is(err, ErrFailed) {
			t.Fatalf("seed %d: Minimize = %v on infeasible model, want ErrFailed", seed, err)
		}
	}
}
