package resources

import (
	"fmt"
	"sort"
)

// ParseVector turns a map keyed by wire name into a vector. It is the
// one check of a wire map's kinds and quantities: unknown kinds and
// negative quantities are rejected, the keys taken in sorted order so
// that the error a map draws does not depend on map iteration. Absent
// kinds stay zero.
func ParseVector(m map[string]int) (Vector, error) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var v Vector
	for _, name := range names {
		k, err := ParseKind(name)
		if err != nil {
			return Vector{}, err
		}
		if m[name] < 0 {
			return Vector{}, fmt.Errorf("resources: negative %s", name)
		}
		v[k] = m[name]
	}
	return v, nil
}

// FromWire assembles a vector from the wire format's dedicated
// cpu/memory fields plus the extras object. It is the single home of
// the configuration document's trust boundary: negative quantities and
// base kinds duplicated inside the extras map are rejected here, and
// the extras go through ParseVector. vjob.Configuration's JSON decoder
// calls it for every node and VM, which is what GET /v1/config serves
// and cmd/planviz reads.
func FromWire(cpu, memory int, extras map[string]int) (Vector, error) {
	if cpu < 0 || memory < 0 {
		return Vector{}, fmt.Errorf("resources: negative cpu or memory")
	}
	v, err := ParseVector(extras)
	if err != nil {
		return Vector{}, err
	}
	for _, k := range kinds[:baseKinds] {
		if _, dup := extras[k.String()]; dup {
			return Vector{}, fmt.Errorf("resources: %s duplicated inside resources", k)
		}
	}
	v[CPU], v[Memory] = cpu, memory
	return v, nil
}
