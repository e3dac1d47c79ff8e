package api

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cwcs/internal/core"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// refNodeLoad and refLoadByNode are how the node endpoints read load
// before the configuration kept a per-node index: one walk over every
// VM into a name-keyed map. They stay as the reference the index-backed
// nodeStatus, nodeListLocked and nodeGaugesLocked are compared with.
type refNodeLoad struct {
	used              resources.Vector
	running, sleeping []string
}

func refLoadByNode(cfg *vjob.Configuration) map[string]*refNodeLoad {
	out := make(map[string]*refNodeLoad)
	get := func(node string) *refNodeLoad {
		ld := out[node]
		if ld == nil {
			ld = &refNodeLoad{}
			out[node] = ld
		}
		return ld
	}
	for _, v := range cfg.VMs() {
		switch cfg.StateOf(v.Name) {
		case vjob.Running:
			ld := get(cfg.HostOf(v.Name))
			ld.used = ld.used.Add(v.Demand)
			ld.running = append(ld.running, v.Name)
		case vjob.Sleeping:
			ld := get(cfg.ImageHostOf(v.Name))
			ld.sleeping = append(ld.sleeping, v.Name)
		}
	}
	return out
}

func refNodeStatus(s *Server, cfg *vjob.Configuration, load map[string]*refNodeLoad, name string) (nodeJSON, bool) {
	out := nodeJSON{Name: name, Draining: s.Drains.IsDrained(name)}
	n := cfg.Node(name)
	if n == nil {
		if !out.Draining {
			return out, false
		}
		out.Offline = true
		out.Evacuated = true
		return out, true
	}
	out.CPU, out.Memory = n.CPU(), n.Memory()
	var used resources.Vector
	if ld := load[name]; ld != nil {
		used = ld.used
		out.Running, out.Sleeping = ld.running, ld.sleeping
	}
	out.UsedCPU = used.Get(resources.CPU)
	out.UsedMemory = used.Get(resources.Memory)
	for _, k := range resources.Kinds() {
		if n.Capacity.Get(k) == 0 && used.Get(k) == 0 {
			continue
		}
		if out.Resources == nil {
			out.Resources = make(map[string]resourceJSON)
		}
		out.Resources[k.String()] = resourceJSON{Used: used.Get(k), Capacity: n.Capacity.Get(k)}
	}
	out.Evacuated = out.Draining && len(out.Running) == 0 && len(out.Sleeping) == 0
	if out.Draining && !out.Evacuated {
		if len(out.Running) > 0 {
			out.Reason = ReasonInProgress
		} else {
			out.Reason = ReasonPinnedByImage
			out.PinnedBy = pinningVJobs(cfg, out.Sleeping)
		}
	}
	return out, true
}

func refNodeGauges(cfg *vjob.Configuration) []nodeGauge {
	var out []nodeGauge
	load := refLoadByNode(cfg)
	for _, n := range cfg.Nodes() {
		var used resources.Vector
		if ld := load[n.Name]; ld != nil {
			used = ld.used
		}
		for _, k := range resources.Kinds() {
			if n.Capacity.Get(k) == 0 && used.Get(k) == 0 {
				continue
			}
			out = append(out, nodeGauge{
				node: n.Name, kind: k.String(),
				used: float64(used.Get(k)), capacity: float64(n.Capacity.Get(k)),
			})
		}
	}
	return out
}

// refNodeList is nodeListLocked over the reference load map.
func refNodeList(s *Server) []nodeJSON {
	cfg := s.Config()
	load := refLoadByNode(cfg)
	var out []nodeJSON
	seen := make(map[string]bool)
	for _, n := range cfg.Nodes() {
		st, _ := refNodeStatus(s, cfg, load, n.Name)
		out = append(out, st)
		seen[n.Name] = true
	}
	for _, name := range s.Drains.Nodes() {
		if !seen[name] {
			st, _ := refNodeStatus(s, cfg, load, name)
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// randomCluster builds a seeded configuration with every kind of node
// the endpoints render: idle, loaded past capacity, holding sleeping
// images only, with an extra resource dimension, draining with guests
// left, draining with images only, and drained and removed (offline).
// Some VMs wait, some belong to no vjob, and half the seeds render a
// clone mutated after the copy, so copy-on-write storage is read too.
func randomCluster(seed int64) (*vjob.Configuration, *core.DrainSet) {
	rng := rand.New(rand.NewSource(seed))
	cfg := vjob.NewConfiguration()
	kinds := resources.Kinds()
	nodes := 3 + rng.Intn(20)
	for i := 0; i < nodes; i++ {
		capacity := resources.New(1+rng.Intn(8), 512*(1+rng.Intn(8)))
		if len(kinds) > 2 && rng.Intn(3) == 0 {
			capacity.Set(kinds[2+rng.Intn(len(kinds)-2)], 1+rng.Intn(4))
		}
		cfg.AddNode(vjob.NewNodeRes(fmt.Sprintf("n%02d", rng.Intn(40)), capacity))
	}
	names := cfg.Nodes()
	vms := rng.Intn(60)
	for i := 0; i < vms; i++ {
		demand := resources.New(rng.Intn(3), 256*rng.Intn(5))
		if len(kinds) > 2 && rng.Intn(4) == 0 {
			demand.Set(kinds[2+rng.Intn(len(kinds)-2)], rng.Intn(3))
		}
		job := fmt.Sprintf("j%d", rng.Intn(6))
		if rng.Intn(5) == 0 {
			job = ""
		}
		v := vjob.NewVMRes(fmt.Sprintf("vm%03d", rng.Intn(200)), job, demand)
		if cfg.VM(v.Name) != nil {
			continue
		}
		cfg.AddVM(v)
		host := names[rng.Intn(len(names))].Name
		switch rng.Intn(4) {
		case 0, 1:
			_ = cfg.SetRunning(v.Name, host)
		case 2:
			_ = cfg.SetSleeping(v.Name, host)
		}
	}
	if seed%2 == 1 {
		orig := cfg
		cfg = orig.Clone()
		for _, v := range orig.VMs() {
			if rng.Intn(4) == 0 {
				_ = cfg.SetRunning(v.Name, names[rng.Intn(len(names))].Name)
			}
		}
		for _, v := range orig.VMs() {
			_ = orig.SetWaiting(v.Name)
		}
	}
	drains := &core.DrainSet{}
	for _, n := range names {
		switch rng.Intn(4) {
		case 0:
			drains.Drain(n.Name)
		case 1:
			// Evacuate and take the node offline, keeping the drain.
			for _, v := range cfg.RunningOn(n.Name) {
				_ = cfg.SetWaiting(v.Name)
			}
			if rng.Intn(2) == 0 {
				for _, v := range cfg.SleepingOn(n.Name) {
					_ = cfg.SetWaiting(v.Name)
				}
				if cfg.RemoveNode(n.Name) == nil {
					drains.Drain(n.Name)
				}
			} else {
				drains.Drain(n.Name) // images only: pinned
			}
		}
	}
	drains.Drain("never-configured")
	return cfg, drains
}

// TestNodeRenderingMatchesReference: over seeded configurations the
// index-backed node list, every single-node status (known, offline and
// unknown names) and the per-node gauges are byte-identical to the
// rendering over the reference load map.
func TestNodeRenderingMatchesReference(t *testing.T) {
	reasons := map[string]int{}
	offline, extra := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		cfg, drains := randomCluster(seed)
		s := &Server{Exec: func(fn func()) { fn() }, Config: func() *vjob.Configuration { return cfg }, Drains: drains}

		got, err := json.Marshal(s.nodeListLocked())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(refNodeList(s))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("seed %d: node list\n got %s\nwant %s", seed, got, want)
		}

		load := refLoadByNode(cfg)
		names := append(drains.Nodes(), "no-such-node")
		for _, n := range cfg.Nodes() {
			names = append(names, n.Name)
		}
		for _, name := range names {
			st, ok := s.nodeStatus(cfg, name)
			ref, refOK := refNodeStatus(s, cfg, load, name)
			g, _ := json.Marshal(st)
			w, _ := json.Marshal(ref)
			if ok != refOK || string(g) != string(w) {
				t.Fatalf("seed %d: node %s = %s (%t), reference %s (%t)", seed, name, g, ok, w, refOK)
			}
			reasons[st.Reason]++
			if st.Offline {
				offline++
			}
			if len(st.Resources) > 2 {
				extra++
			}
		}

		gauges, refGauges := s.nodeGaugesLocked(), refNodeGauges(cfg)
		if g, w := fmt.Sprintf("%+v", gauges), fmt.Sprintf("%+v", refGauges); g != w {
			t.Fatalf("seed %d: gauges\n got %s\nwant %s", seed, g, w)
		}
	}
	if reasons[ReasonInProgress] == 0 || reasons[ReasonPinnedByImage] == 0 || offline == 0 || extra == 0 {
		t.Fatalf("the generator no longer reaches every node kind: reasons %v, %d offline, %d with an extra dimension", reasons, offline, extra)
	}
}
