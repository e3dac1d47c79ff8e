// Package resources is the multi-dimensional resource model of the
// cluster: a small, allocation-free vector algebra over a registry of
// resource kinds. The paper's model packs VMs by CPU and memory only;
// this package generalizes capacities and demands to any number of
// dimensions (network bandwidth and disk I/O ship in the registry) so
// the packing constraints, the FFD heuristic, the partitioner and the
// monitoring all reason per dimension without knowing the dimension
// list.
//
// New kinds are data, not code: appending a row to the registry table
// gives the whole system — JSON wire format, cp.Packing compilation,
// violations, metrics labels — a new dimension. Vector is a fixed-size
// array, so per-node bookkeeping maps stay allocation-free on the hot
// paths (one array copy per update, no inner maps or slices).
package resources

import "fmt"

// Kind indexes one resource dimension in the registry.
type Kind uint8

// The registered dimensions. CPU and Memory are the paper's original
// model and keep dedicated fields in the JSON wire format; kinds after
// baseKinds ride in the optional "resources" object.
const (
	// CPU is processing units (a computing VM demands a whole one).
	CPU Kind = iota
	// Memory is MiB; it also drives the §4.2 action costs.
	Memory
	// NetBW is network bandwidth in Mbit/s.
	NetBW
	// DiskIO is disk throughput in MiB/s.
	DiskIO

	numKinds
)

// baseKinds counts the dimensions of the paper's original 2-D model.
const baseKinds = 2

// registry is the kind table of wire names. Order is the wire and
// iteration order; appending a row here is all it takes to introduce a
// dimension.
var registry = [numKinds]string{
	CPU:    "cpu",
	Memory: "memory",
	NetBW:  "net",
	DiskIO: "disk",
}

// kinds is the iteration slice handed out by Kinds.
var kinds = func() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}()

// MaxKinds is the number of registered dimensions as a compile-time
// constant, for fixed-size per-kind arrays outside this package.
const MaxKinds = int(numKinds)

// NumKinds returns how many dimensions are registered.
func NumKinds() int { return int(numKinds) }

// Kinds returns every registered kind in registry order. The slice is
// shared: do not mutate it.
func Kinds() []Kind { return kinds }

// ExtraKinds returns the kinds beyond the paper's CPU+memory model, in
// registry order. The slice is shared: do not mutate it.
func ExtraKinds() []Kind { return kinds[baseKinds:] }

// String returns the kind's wire name ("cpu", "memory", "net",
// "disk").
func (k Kind) String() string {
	if int(k) >= int(numKinds) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return registry[k]
}

// ParseKind resolves a wire name to its Kind. Unknown names are
// rejected, which is what keeps the JSON decoder strict.
func ParseKind(name string) (Kind, error) {
	for k, n := range registry {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("resources: unknown resource kind %q", name)
}

// Vector is a quantity per registered dimension: a node capacity, a VM
// demand, or a free-resource balance (which may go negative). The zero
// value is the empty vector. Vector is a value type — copy it freely;
// arithmetic never allocates.
type Vector [numKinds]int

// Capacity aliases Vector where the quantity is a node capacity, for
// signature readability.
type Capacity = Vector

// New builds a vector from the paper's two dimensions; extra
// dimensions start at zero. It is the compatibility constructor the
// CPU+memory call sites use.
func New(cpu, memory int) Vector {
	var v Vector
	v[CPU] = cpu
	v[Memory] = memory
	return v
}

// Get returns the quantity of the kind.
func (v Vector) Get(k Kind) int { return v[k] }

// Set replaces the quantity of the kind.
func (v *Vector) Set(k Kind, x int) { v[k] = x }

// Add returns v + o per dimension.
func (v Vector) Add(o Vector) Vector {
	for k := range v {
		v[k] += o[k]
	}
	return v
}

// Sub returns v - o per dimension.
func (v Vector) Sub(o Vector) Vector {
	for k := range v {
		v[k] -= o[k]
	}
	return v
}

// Fits reports whether v is dimension-wise at most free: a demand fits
// a free-resource balance.
func (v Vector) Fits(free Vector) bool {
	for k := range v {
		if v[k] > free[k] {
			return false
		}
	}
	return true
}

// IsZero reports whether every dimension is zero.
func (v Vector) IsZero() bool { return v == Vector{} }

// AnyNegative reports whether some dimension is negative (an
// over-committed free balance, or an invalid demand).
func (v Vector) AnyNegative() bool {
	for _, x := range v {
		if x < 0 {
			return true
		}
	}
	return false
}

// HasExtra reports whether any dimension beyond the paper's CPU+memory
// model is non-zero. The fast paths use it to compile extra dimensions
// away.
func (v Vector) HasExtra() bool {
	for _, k := range ExtraKinds() {
		if v[k] != 0 {
			return true
		}
	}
	return false
}

// DominantShare returns the vector's largest per-dimension share of
// total — the dominant-resource score of DRF-style packing. Dimensions
// with a non-positive total are skipped; a demand on such a dimension
// counts as saturating (share 1) so it sorts first.
func (v Vector) DominantShare(total Vector) float64 {
	share := 0.0
	for k := range v {
		if total[k] <= 0 {
			if v[k] > 0 && share < 1 {
				share = 1
			}
			continue
		}
		if s := float64(v[k]) / float64(total[k]); s > share {
			share = s
		}
	}
	return share
}

// String renders the vector compactly: the paper's historical
// "cpu=2,mem=4096" for the base dimensions — bit-compatible with the
// pre-vector Node/VM renderings — followed by any non-zero extra
// dimension by wire name, e.g. "cpu=2,mem=4096,net=300".
func (v Vector) String() string {
	out := fmt.Sprintf("cpu=%d,mem=%d", v[CPU], v[Memory])
	for _, k := range ExtraKinds() {
		if v[k] != 0 {
			out += fmt.Sprintf(",%s=%d", k, v[k])
		}
	}
	return out
}
