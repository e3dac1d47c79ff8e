package vjob

import (
	"encoding/json"
	"fmt"

	"cwcs/internal/resources"
)

// configJSON is the serialized form of a Configuration: the body of
// GET /v1/config, and the nodes and VMs cmd/planviz reads.
type configJSON struct {
	Nodes []nodeJSON `json:"nodes"`
	VMs   []vmJSON   `json:"vms"`
}

// The paper's two dimensions keep their dedicated fields; extra
// registered dimensions (net, disk) ride in the optional "resources"
// object, zero dimensions omitted — so a 2-D configuration encodes to
// exactly the bytes it did before the multi-resource model existed.
type nodeJSON struct {
	Name      string         `json:"name"`
	CPU       int            `json:"cpu"`
	Memory    int            `json:"memory"`
	Resources map[string]int `json:"resources,omitempty"`
}

type vmJSON struct {
	Name      string         `json:"name"`
	VJob      string         `json:"vjob,omitempty"`
	CPU       int            `json:"cpu"`
	Memory    int            `json:"memory"`
	Resources map[string]int `json:"resources,omitempty"`
	State     string         `json:"state"`
	Node      string         `json:"node,omitempty"`
}

// extraMap extracts the non-zero extra dimensions of v as a wire map,
// nil when the vector lives in the 2-D fast path. encoding/json sorts
// map keys, so the encoding is deterministic.
func extraMap(v resources.Vector) map[string]int {
	var out map[string]int
	for _, k := range resources.ExtraKinds() {
		if x := v.Get(k); x != 0 {
			if out == nil {
				out = make(map[string]int)
			}
			out[k.String()] = x
		}
	}
	return out
}

// MarshalJSON encodes the configuration with nodes and VMs in
// deterministic order.
func (c *Configuration) MarshalJSON() ([]byte, error) {
	out := configJSON{}
	for _, n := range c.Nodes() {
		out.Nodes = append(out.Nodes, nodeJSON{
			Name:      n.Name,
			CPU:       n.CPU(),
			Memory:    n.Memory(),
			Resources: extraMap(n.Capacity),
		})
	}
	for _, v := range c.VMs() {
		out.VMs = append(out.VMs, vmJSON{
			Name:      v.Name,
			VJob:      v.VJob,
			CPU:       v.CPUDemand(),
			Memory:    v.MemoryDemand(),
			Resources: extraMap(v.Demand),
			State:     c.StateOf(v.Name).String(),
			Node:      c.LocationOf(v.Name),
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a configuration previously produced by
// MarshalJSON (or written by hand; see cmd/planviz -example).
func (c *Configuration) UnmarshalJSON(data []byte) error {
	var in configJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*c = Configuration{ix: newIndex(len(in.Nodes), len(in.VMs))}
	for _, n := range in.Nodes {
		if n.Name == "" {
			// An empty node name would collide with the "no placement"
			// encoding (the omitempty on vmJSON.Node) and break the
			// round trip.
			return fmt.Errorf("vjob: node with empty name")
		}
		cap, err := resources.FromWire(n.CPU, n.Memory, n.Resources)
		if err != nil {
			return fmt.Errorf("vjob: node %s: %w", n.Name, err)
		}
		c.AddNode(NewNodeRes(n.Name, cap))
	}
	for _, v := range in.VMs {
		if v.Name == "" {
			return fmt.Errorf("vjob: VM with empty name")
		}
		demand, err := resources.FromWire(v.CPU, v.Memory, v.Resources)
		if err != nil {
			return fmt.Errorf("vjob: VM %s: %w", v.Name, err)
		}
		c.AddVM(NewVMRes(v.Name, v.VJob, demand))
		st := Waiting // an absent state is a VM never placed
		if v.State != "" {
			st, err = ParseState(v.State)
		}
		switch {
		case err != nil || st == Terminated:
			// A configuration holds no terminated VM.
			return fmt.Errorf("vjob: VM %s has unknown state %q", v.Name, v.State)
		case st == Running:
			err = c.SetRunning(v.Name, v.Node)
		case st == Sleeping:
			err = c.SetSleeping(v.Name, v.Node)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
