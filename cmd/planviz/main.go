// Command planviz loads a cluster from JSON, computes the
// reconfiguration the requested vjob states imply, and pretty-prints
// the optimized plan: the pools, the actions with their local and
// accumulated costs, and the resulting configuration.
//
// The input is a GET /v1/config body, which vjob.Configuration
// decodes, plus optional "targets" and "rules" (-example prints one):
//
//	{
//	  "nodes": [{"name": "n1", "cpu": 2, "memory": 4096}, ...],
//	  "vms": [{"name": "vm1", "vjob": "j1", "cpu": 1, "memory": 1024,
//	           "state": "running", "node": "n1"}, ...],
//	  "targets": {"j1": "sleeping", "j2": "running"},
//	  "rules": [{"type": "spread", "vms": ["vm1", "vm2"]}]
//	}
//
// Extra resource dimensions ride in a "resources" object ({"net":
// 1000}). A node or VM with an empty name is refused.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/vjob"
)

// ruleSpec is a placement rule: "spread", "ban", "fence" or "gather".
type ruleSpec struct {
	Type  string   `json:"type"`
	VMs   []string `json:"vms"`
	Nodes []string `json:"nodes"`
}

func (r ruleSpec) compile() (core.PlacementRule, error) {
	switch r.Type {
	case "spread":
		return core.Spread{VMs: r.VMs}, nil
	case "ban":
		return core.Ban{VMs: r.VMs, Nodes: r.Nodes}, nil
	case "fence":
		return core.Fence{VMs: r.VMs, Nodes: r.Nodes}, nil
	case "gather":
		return core.Gather{VMs: r.VMs}, nil
	default:
		return nil, fmt.Errorf("unknown rule type %q", r.Type)
	}
}

const exampleSpec = `{
  "nodes": [
    {"name": "n1", "cpu": 1, "memory": 3072},
    {"name": "n2", "cpu": 1, "memory": 3072},
    {"name": "n3", "cpu": 1, "memory": 3072}
  ],
  "vms": [
    {"name": "vm1", "vjob": "j1", "cpu": 1, "memory": 2048, "state": "running", "node": "n1"},
    {"name": "vm2", "vjob": "j2", "cpu": 1, "memory": 2048, "state": "running", "node": "n2"},
    {"name": "vm3", "vjob": "j3", "cpu": 1, "memory": 1024, "state": "waiting"}
  ],
  "targets": {"j2": "sleeping", "j3": "running"}
}
`

func main() {
	timeout := flag.Duration("timeout", 5*time.Second, "optimizer time budget")
	example := flag.Bool("example", false, "print an example cluster JSON and exit")
	flag.Parse()
	if *example {
		fmt.Print(exampleSpec)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: planviz [-timeout 5s] cluster.json   (or planviz -example)")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prob, err := load(data)
	if err != nil {
		fatal(fmt.Errorf("parsing %s: %w", flag.Arg(0), err))
	}

	fmt.Println("current configuration:")
	fmt.Print(indent(prob.Src.String()))
	res, err := core.Optimizer{Timeout: *timeout}.Solve(prob)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nreconfiguration plan:")
	fmt.Print(indent(res.Plan.String()))
	fmt.Printf("\ncost=%d lower-bound=%d optimal=%v bypass-migrations=%d\n",
		res.Cost, res.LowerBound, res.Optimal, res.Plan.Bypass)
	fmt.Println("\ndestination configuration:")
	fmt.Print(indent(res.Dst.String()))
}

// load decodes a cluster document into the problem it poses: the nodes
// and VMs through vjob.Configuration, the targets and rules here.
func load(data []byte) (core.Problem, error) {
	prob := core.Problem{Src: new(vjob.Configuration)}
	if err := json.Unmarshal(data, prob.Src); err != nil {
		return core.Problem{}, err
	}
	var spec struct {
		Targets map[string]string `json:"targets"`
		Rules   []ruleSpec        `json:"rules"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return core.Problem{}, err
	}
	prob.Target = make(map[string]vjob.State, len(spec.Targets))
	for job, name := range spec.Targets {
		st, err := vjob.ParseState(name)
		if err != nil {
			return core.Problem{}, fmt.Errorf("target %s: %w", job, err)
		}
		prob.Target[job] = st
	}
	for _, r := range spec.Rules {
		rule, err := r.compile()
		if err != nil {
			return core.Problem{}, err
		}
		prob.Rules = append(prob.Rules, rule)
	}
	return prob, nil
}

// indent prefixes every line of s with two spaces.
func indent(s string) string {
	if s == "" {
		return ""
	}
	return "  " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n  ") + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "planviz:", err)
	os.Exit(1)
}
