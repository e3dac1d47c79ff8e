package plan

import (
	"errors"
	"fmt"
	"testing"

	"cwcs/internal/vjob"
)

// mergeCluster builds a 4-node cluster split into two independent
// halves, each needing a two-pool reconfiguration (a suspend must free
// room before a migration becomes feasible).
func mergeCluster(t *testing.T) (src *vjob.Configuration, left, right *Plan) {
	t.Helper()
	src = vjob.NewConfiguration()
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		src.AddNode(vjob.NewNode(n, 2, 3072))
	}
	place := func(vm, node string, mem int) *vjob.VM {
		v := vjob.NewVM(vm, "j-"+vm, 1, mem)
		src.AddVM(v)
		if err := src.SetRunning(vm, node); err != nil {
			t.Fatal(err)
		}
		return v
	}
	place("a1", "n1", 2048)
	place("a2", "n2", 2048)
	place("b1", "n3", 2048)
	place("b2", "n4", 2048)

	mkHalf := func(keep, victim string, from, to string) *Plan {
		dst := src.Clone()
		if err := dst.SetSleeping(victim, from); err != nil {
			t.Fatal(err)
		}
		if err := dst.SetRunning(keep, from); err != nil {
			t.Fatal(err)
		}
		// Restrict to the half's nodes/VMs so the plans stay disjoint.
		subSrc, err := src.Extract([]string{from, to}, []string{keep, victim})
		if err != nil {
			t.Fatal(err)
		}
		subDst, err := dst.Extract([]string{from, to}, []string{keep, victim})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Build(subSrc, subDst)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Left half: suspend a1 on n1, then migrate a2 from n2 to n1.
	left = mkHalf("a2", "a1", "n1", "n2")
	// Right half: suspend b1 on n3, then migrate b2 from n4 to n3.
	right = mkHalf("b2", "b1", "n3", "n4")
	return src, left, right
}

func TestMergeZipsPoolsAndStaysValid(t *testing.T) {
	src, left, right := mergeCluster(t)
	if len(left.Pools) < 2 || len(right.Pools) < 2 {
		t.Fatalf("halves should need 2 pools (got %d and %d)", len(left.Pools), len(right.Pools))
	}
	merged, err := Merge(src, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.NumActions(), left.NumActions()+right.NumActions(); got != want {
		t.Fatalf("merged actions = %d, want %d", got, want)
	}
	if len(merged.Pools) != 2 {
		t.Fatalf("merged pools = %d, want 2 (zipped)", len(merged.Pools))
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged plan invalid: %v", err)
	}
	res, err := merged.Result()
	if err != nil {
		t.Fatal(err)
	}
	// The merged plan reaches the union of the halves' destinations.
	want := src.Clone()
	for _, half := range []*Plan{left, right} {
		sub, err := half.Result()
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Rebase(half.Src, sub); err != nil {
			t.Fatal(err)
		}
	}
	if !res.Equal(want) {
		t.Fatalf("merged result:\n%svs rebased union:\n%s", res, want)
	}
}

func TestMergeRejectsOverlap(t *testing.T) {
	src, left, _ := mergeCluster(t)
	if _, err := Merge(src, left, left); !errors.Is(err, ErrOverlappingPlans) {
		t.Fatalf("err = %v, want ErrOverlappingPlans", err)
	}
	if _, err := Merge(src, left, nil); err == nil {
		t.Fatal("merge accepted a nil plan")
	}
}

func TestMergeUnevenPoolCounts(t *testing.T) {
	src := vjob.NewConfiguration()
	for i := 0; i < 4; i++ {
		src.AddNode(vjob.NewNode(fmt.Sprintf("m%d", i), 2, 4096))
	}
	v1 := vjob.NewVM("v1", "a", 1, 1024)
	v2 := vjob.NewVM("v2", "b", 1, 1024)
	src.AddVM(v1)
	src.AddVM(v2)
	if err := src.SetRunning("v1", "m0"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetRunning("v2", "m2"); err != nil {
		t.Fatal(err)
	}
	long := &Plan{Src: src, Pools: []Pool{
		{&Migration{Machine: v1, Src: "m0", Dst: "m1"}},
		{&Migration{Machine: v1, Src: "m1", Dst: "m0"}},
	}}
	short := &Plan{Src: src, Pools: []Pool{
		{&Migration{Machine: v2, Src: "m2", Dst: "m3"}},
	}}
	merged, err := Merge(src, long, short)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Pools) != 2 || len(merged.Pools[0]) != 2 || len(merged.Pools[1]) != 1 {
		t.Fatalf("merged shape wrong: %v", merged)
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	if merged.Cost() <= 0 {
		t.Fatal("merged cost not computed")
	}
}

func TestMergeOfNothingIsEmptyPlan(t *testing.T) {
	src := vjob.NewConfiguration()
	src.AddNode(vjob.NewNode("n", 1, 1024))
	merged, err := Merge(src)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumActions() != 0 || merged.Cost() != 0 {
		t.Fatalf("empty merge: %v", merged)
	}
}

// TestMergeInTwoStepsEqualsOne pins what lets the loop hand Repair the
// merged plan of its re-solved slices as the one fresh plan: pool i of
// a merge is the sorted union of pool i of its inputs, so merging the
// fresh plans first and the kept remainder second gives the plan that
// merging all of them at once gives.
func TestMergeInTwoStepsEqualsOne(t *testing.T) {
	src := vjob.NewConfiguration()
	for i := 0; i < 6; i++ {
		src.AddNode(vjob.NewNode(fmt.Sprintf("m%d", i), 2, 4096))
	}
	vms := make([]*vjob.VM, 3)
	for i := range vms {
		vms[i] = vjob.NewVM(fmt.Sprintf("v%d", i), "j", 1, 1024<<i)
		src.AddVM(vms[i])
		if err := src.SetRunning(vms[i].Name, fmt.Sprintf("m%d", 2*i)); err != nil {
			t.Fatal(err)
		}
	}
	// pingPong moves VM i back and forth between its two nodes, one
	// migration per pool.
	pingPong := func(i, pools int) *Plan {
		p := &Plan{Src: src, Bypass: i}
		at, other := fmt.Sprintf("m%d", 2*i), fmt.Sprintf("m%d", 2*i+1)
		for ; pools > 0; pools-- {
			p.Pools = append(p.Pools, Pool{&Migration{Machine: vms[i], Src: at, Dst: other}})
			at, other = other, at
		}
		return p
	}
	kept, freshA, freshB := pingPong(1, 2), pingPong(2, 1), pingPong(0, 3)
	one, err := Merge(src, kept, freshA, freshB)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Merge(src, freshA, freshB)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Merge(src, kept, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() || one.Cost() != two.Cost() || one.Bypass != two.Bypass {
		t.Fatalf("two-step merge differs:\n%v(cost %d, bypass %d)\nvs\n%v(cost %d, bypass %d)",
			two, two.Cost(), two.Bypass, one, one.Cost(), one.Bypass)
	}
	if len(one.Pools) != 3 || len(one.Pools[0]) != 3 || len(one.Pools[2]) != 1 {
		t.Fatalf("merged shape wrong: %v", one)
	}
	if err := two.Validate(); err != nil {
		t.Fatal(err)
	}
}
