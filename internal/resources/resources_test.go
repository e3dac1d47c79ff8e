package resources

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	if NumKinds() != MaxKinds || NumKinds() < 4 {
		t.Fatalf("NumKinds = %d, MaxKinds = %d", NumKinds(), MaxKinds)
	}
	if len(Kinds()) != NumKinds() {
		t.Fatalf("Kinds() has %d entries", len(Kinds()))
	}
	if len(ExtraKinds()) != NumKinds()-2 || ExtraKinds()[0] != NetBW {
		t.Fatalf("ExtraKinds() = %v", ExtraKinds())
	}
	names := map[Kind]string{CPU: "cpu", Memory: "memory", NetBW: "net", DiskIO: "disk"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
		back, err := ParseKind(want)
		if err != nil || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseKind("tape"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if bad := Kind(200); bad.String() != "kind(200)" {
		t.Fatalf("out-of-range kind renders %q", bad.String())
	}
}

func TestVectorAlgebra(t *testing.T) {
	v := New(2, 4096)
	if v.Get(CPU) != 2 || v.Get(Memory) != 4096 || v.Get(NetBW) != 0 {
		t.Fatalf("New = %v", v)
	}
	v.Set(NetBW, 100)
	w := New(1, 1000)
	sum := v.Add(w)
	if sum.Get(CPU) != 3 || sum.Get(Memory) != 5096 || sum.Get(NetBW) != 100 {
		t.Fatalf("Add = %v", sum)
	}
	diff := sum.Sub(w)
	if diff != v {
		t.Fatalf("Sub did not invert Add: %v vs %v", diff, v)
	}
	if !w.Fits(v) {
		t.Fatal("smaller vector should fit")
	}
	big := New(3, 0)
	if big.Fits(v) {
		t.Fatal("cpu=3 must not fit cpu=2")
	}
	var zero Vector
	if !zero.IsZero() || v.IsZero() {
		t.Fatal("IsZero wrong")
	}
	if v.AnyNegative() {
		t.Fatal("no dimension is negative")
	}
	if !zero.Sub(New(0, 1)).AnyNegative() {
		t.Fatal("negative memory undetected")
	}
	if !v.HasExtra() || New(9, 9).HasExtra() {
		t.Fatal("HasExtra wrong")
	}
}

func TestDominantShare(t *testing.T) {
	total := New(100, 1000)
	total.Set(NetBW, 10)
	d := New(10, 100) // 10% cpu, 10% mem
	if got := d.DominantShare(total); got != 0.1 {
		t.Fatalf("share = %v", got)
	}
	d.Set(NetBW, 5) // 50% net dominates
	if got := d.DominantShare(total); got != 0.5 {
		t.Fatalf("share = %v", got)
	}
	// Demanding a dimension the cluster does not offer saturates.
	d2 := New(0, 0)
	d2.Set(DiskIO, 1)
	if got := d2.DominantShare(total); got != 1 {
		t.Fatalf("share on absent dimension = %v", got)
	}
	if got := (Vector{}).DominantShare(total); got != 0 {
		t.Fatalf("empty share = %v", got)
	}
}

func TestVectorString(t *testing.T) {
	if got := New(1, 2).String(); got != "cpu=1,mem=2" {
		t.Fatalf("2-D String = %q", got)
	}
	v := New(1, 2)
	v.Set(NetBW, 3)
	v.Set(DiskIO, 4)
	if got := v.String(); got != "cpu=1,mem=2,net=3,disk=4" {
		t.Fatalf("4-D String = %q", got)
	}
}

func TestParseVector(t *testing.T) {
	v, err := ParseVector(map[string]int{"cpu": 2, "memory": 4096, "disk": 50})
	if err != nil {
		t.Fatal(err)
	}
	want := New(2, 4096)
	want.Set(DiskIO, 50)
	if v != want {
		t.Fatalf("ParseVector = %s", v)
	}
	if v, err := ParseVector(nil); err != nil || v != (Vector{}) {
		t.Fatalf("nil map: %s, %v", v, err)
	}
	for _, tc := range []struct {
		m    map[string]int
		want string
	}{
		// Sorted keys: the same map draws the same error every time.
		{map[string]int{"net": -1, "disk": 1, "tape": 1, "cpu": 1}, "negative net"},
	} {
		for i := 0; i < 8; i++ {
			if _, err := ParseVector(tc.m); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseVector(%v) = %v, want an error naming %q", tc.m, err, tc.want)
			}
		}
	}
}

// parseWire decodes a JSON object the way the configuration document's
// extras map arrives and hands it to ParseVector.
func parseWire(doc string) (Vector, error) {
	var m map[string]int
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		return Vector{}, err
	}
	return ParseVector(m)
}

func TestVectorJSONRejects(t *testing.T) {
	if _, err := parseWire(`{"tape":3}`); err == nil || !strings.Contains(err.Error(), `unknown resource kind "tape"`) {
		t.Fatalf("unknown kind: %v", err)
	}
	if _, err := parseWire(`[1,2]`); err == nil {
		t.Fatal("non-object accepted")
	}
	// A valid parse holds only what the map names.
	v, err := parseWire(`{"net":7}`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Get(CPU) != 0 || v.Get(NetBW) != 7 {
		t.Fatalf("parse = %v", v)
	}
}

func TestVectorJSONRejectsNegative(t *testing.T) {
	if _, err := parseWire(`{"cpu":-5}`); err == nil || !strings.Contains(err.Error(), "negative cpu") {
		t.Fatalf("negative quantity: %v", err)
	}
}

func TestFromWire(t *testing.T) {
	v, err := FromWire(2, 4096, map[string]int{"net": 100, "disk": 50})
	if err != nil {
		t.Fatal(err)
	}
	want := New(2, 4096)
	want.Set(NetBW, 100)
	want.Set(DiskIO, 50)
	if v != want {
		t.Fatalf("FromWire = %s", v)
	}
	if v, err := FromWire(1, 2, nil); err != nil || v != New(1, 2) {
		t.Fatalf("no extras: %s, %v", v, err)
	}
	for _, bad := range []struct {
		cpu, mem int
		extras   map[string]int
	}{
		{-1, 0, nil},
		{0, -1, nil},
		{0, 0, map[string]int{"tape": 1}},
		{0, 0, map[string]int{"cpu": 1}},
		{0, 0, map[string]int{"memory": 1}},
		{0, 0, map[string]int{"net": -1}},
	} {
		if _, err := FromWire(bad.cpu, bad.mem, bad.extras); err == nil {
			t.Fatalf("accepted %+v", bad)
		}
	}
}
