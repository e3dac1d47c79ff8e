// Package api is the embeddable HTTP control plane of the daemon: the
// operator surface that lets monitoring systems and humans drive the
// cluster-wide context switch engine from outside the process.
//
// Read endpoints expose the live configuration, the executing plan
// with per-action status, the loop telemetry and Prometheus-style
// metrics; write endpoints inject cluster events into the event-driven
// loop (the same path the simulator's monitoring uses), command node
// lifecycle (drain / undrain, which install Ban-style Drained rules
// through core.DrainSet and trigger evacuation), and submit or
// withdraw vjobs at runtime.
//
// The server is deliberately thin: it owns no cluster state. Every
// handler runs its work inside the Exec serializer the host provides,
// so the control plane, the control loop and the simulator never race;
// responses are written outside the critical section. Every Server
// hook is required except Withdraw, whose absence makes DELETE
// /v1/vjobs/{name} answer 501.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"cwcs/internal/core"
	"cwcs/internal/drivers"
	"cwcs/internal/monitor"
	"cwcs/internal/obs"
	"cwcs/internal/resources"
	"cwcs/internal/vjob"
)

// PhaseSpec is one workload phase of a submitted VM: CPU processing
// units for Seconds of work (mirrors sim.Phase).
type PhaseSpec struct {
	CPU     int     `json:"cpu"`
	Seconds float64 `json:"seconds"`
}

// VMSpec describes one VM of a submitted vjob.
type VMSpec struct {
	Name   string `json:"name"`
	CPU    int    `json:"cpu"`
	Memory int    `json:"memory"`
	// Phases is the workload the host attaches to the VM; empty means
	// a service VM that runs until the vjob is withdrawn.
	Phases []PhaseSpec `json:"phases,omitempty"`
}

// VJobSpec is the body of POST /v1/vjobs.
type VJobSpec struct {
	Name string   `json:"name"`
	VMs  []VMSpec `json:"vms"`
}

// Server is the control plane. All function hooks are invoked inside
// Exec. Every field is required except Withdraw: a host that cannot
// take a vjob back leaves it nil, and DELETE /v1/vjobs/{name} answers
// 501.
type Server struct {
	// Exec serializes a handler's work with the control loop and the
	// simulator (e.g. by holding the mutex the sim driver holds while
	// advancing virtual time).
	Exec func(func())

	// Now returns the current virtual time.
	Now func() float64
	// Config returns the live configuration (a snapshot is taken under
	// Exec before rendering).
	Config func() *vjob.Configuration
	// Stats returns the loop telemetry.
	Stats func() core.LoopStats
	// Switches returns how many context switches executed so far.
	Switches func() int
	// Execution returns the in-flight execution, nil when idle.
	Execution func() *drivers.Execution
	// Notify injects one cluster event into the loop.
	Notify func(core.Event)
	// Drains is the node-lifecycle bridge shared with Loop.Drains.
	Drains *core.DrainSet
	// OnUndrain runs after an undrain changed the drain set — the
	// host's chance to bring the node back into the simulator's
	// lifecycle (SetNodeOnline). An error rolls the undrain back and
	// fails the request.
	OnUndrain func(node string) error
	// Submit and Withdraw manage vjobs at runtime.
	Submit   func(VJobSpec) error
	Withdraw func(name string) error
	// ViolationSeconds returns the integral of capacity violations
	// over virtual time.
	ViolationSeconds func() float64
	// QueueDepth returns the number of vjobs in the submission queue.
	QueueDepth func() int
	// Trace backs GET /v1/trace and GET /v1/watch and the pipeline
	// latency histograms of /metrics. Span-ring reads are lock-free, so
	// trace scrapes skip Exec and never delay the loop.
	Trace *obs.Tracer
	// Ledger backs GET /v1/violations and the labeled
	// cwcs_violation_seconds_total{vjob,kind} / {node,kind} and
	// cwcs_rule_breach_seconds_total{rule} samples. The ledger carries
	// its own lock, so reads skip Exec and never delay the sim.
	Ledger *monitor.Ledger
	// Solver backs GET /v1/solver and the
	// cwcs_portfolio_wins_total{strategy} / cwcs_warm_start_* metric
	// families. Self-locked like the ledger; reads skip Exec.
	Solver *core.SolverTelemetry

	// heartbeat, stateInterval and stateBuffer override watchHeartbeat,
	// statePoll and stateQueue when positive; only tests set them.
	heartbeat, stateInterval time.Duration
	stateBuffer              int

	// stateDrops counts watch/state subscribers disconnected for
	// falling behind.
	stateDrops atomic.Uint64
}

// The pace of the SSE streams.
const (
	// watchHeartbeat is the keep-alive period of GET /v1/watch and GET
	// /v1/watch/state.
	watchHeartbeat = 15 * time.Second
	// watchBuffer is the per-subscriber event queue of GET /v1/watch.
	// A client that falls this far behind is dropped and disconnected
	// rather than ever blocking the loop (cwcs_watch_drops_total
	// counts it).
	watchBuffer = 256
	// statePoll is the poll period of the GET /v1/watch/state producer
	// (real time — deltas are observed under Exec at this cadence, not
	// per sim event).
	statePoll = time.Second
	// stateQueue is the per-subscriber delta queue of GET
	// /v1/watch/state. A client that falls this far behind gets a
	// terminal dropped event instead of ever blocking the producer
	// (cwcs_state_watch_drops_total counts it).
	stateQueue = 16
)

// orDefault returns v when positive, def otherwise.
func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// Handler returns the routed control plane.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/config", s.handleConfig)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/watch/state", s.handleWatchState)
	mux.HandleFunc("GET /v1/violations", s.handleViolations)
	mux.HandleFunc("GET /v1/solver", s.handleSolver)
	mux.HandleFunc("GET /v1/nodes", s.handleNodes)
	mux.HandleFunc("GET /v1/nodes/{id}", s.handleNode)
	mux.HandleFunc("POST /v1/nodes/{id}/drain", s.handleDrain)
	mux.HandleFunc("POST /v1/nodes/{id}/undrain", s.handleUndrain)
	mux.HandleFunc("POST /v1/events", s.handleEvents)
	mux.HandleFunc("POST /v1/vjobs", s.handleSubmit)
	mux.HandleFunc("DELETE /v1/vjobs/{name}", s.handleWithdraw)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	var snap *vjob.Configuration
	s.Exec(func() { snap = s.Config().Clone() })
	writeJSON(w, http.StatusOK, snap)
}

// statsJSON is the body of GET /v1/stats.
type statsJSON struct {
	Now              float64        `json:"now"`
	Loop             core.LoopStats `json:"loop"`
	Switches         int            `json:"switches"`
	ViolationSeconds float64        `json:"violationSeconds"`
	QueueDepth       int            `json:"queueDepth"`
	DrainingNodes    []string       `json:"drainingNodes,omitempty"`
	Executing        bool           `json:"executing"`
}

// statsLocked gathers the telemetry GET /v1/stats and /metrics share.
// Callers hold Exec.
func (s *Server) statsLocked() statsJSON {
	ex := s.Execution()
	return statsJSON{
		Now:              s.Now(),
		Loop:             s.Stats(),
		Switches:         s.Switches(),
		ViolationSeconds: s.ViolationSeconds(),
		QueueDepth:       s.QueueDepth(),
		DrainingNodes:    s.Drains.Nodes(),
		Executing:        ex != nil && !ex.Finished(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var out statsJSON
	s.Exec(func() { out = s.statsLocked() })
	writeJSON(w, http.StatusOK, out)
}

// actionJSON is one action's status in GET /v1/plan.
type actionJSON struct {
	Pool    int     `json:"pool"`
	Action  string  `json:"action"`
	VM      string  `json:"vm"`
	Phase   string  `json:"phase"`
	Err     string  `json:"error,omitempty"`
	Started float64 `json:"started,omitempty"`
	Ended   float64 `json:"ended,omitempty"`
}

// planJSON is the body of GET /v1/plan.
type planJSON struct {
	Executing bool         `json:"executing"`
	Cost      int          `json:"cost,omitempty"`
	Pools     int          `json:"pools,omitempty"`
	Actions   []actionJSON `json:"actions,omitempty"`
}

// planLocked renders the in-flight plan's status. Callers hold Exec;
// it backs both GET /v1/plan and the watch/state plan stream.
func (s *Server) planLocked() planJSON {
	var out planJSON
	ex := s.Execution()
	if ex == nil {
		return out
	}
	p := ex.Plan()
	out.Executing = !ex.Finished()
	out.Cost = p.Cost()
	out.Pools = len(p.Pools)
	for _, st := range ex.Status() {
		out.Actions = append(out.Actions, actionJSON{
			Pool:    st.Pool,
			Action:  st.Action,
			VM:      st.VM,
			Phase:   st.Phase.String(),
			Err:     st.Err,
			Started: st.Started,
			Ended:   st.Ended,
		})
	}
	return out
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var out planJSON
	s.Exec(func() { out = s.planLocked() })
	writeJSON(w, http.StatusOK, out)
}

// nodeJSON is one node's status in GET /v1/nodes. CPU/memory keep
// their historical flat fields; Resources carries every dimension with
// non-zero capacity or usage — the authoritative per-dimension view.
type nodeJSON struct {
	Name       string                  `json:"name"`
	CPU        int                     `json:"cpu"`
	Memory     int                     `json:"memory"`
	UsedCPU    int                     `json:"usedCPU"`
	UsedMemory int                     `json:"usedMemory"`
	Resources  map[string]resourceJSON `json:"resources,omitempty"`
	Running    []string                `json:"running,omitempty"`
	Sleeping   []string                `json:"sleeping,omitempty"`
	Draining   bool                    `json:"draining"`
	// Evacuated is true for a draining node that holds nothing
	// anymore: safe to take offline. A node still storing suspended
	// images stays un-evacuated — the optimizer cannot relocate an
	// image; resume (or withdraw) the owning vjobs to free it.
	Evacuated bool `json:"evacuated"`
	// Offline is true for a draining node absent from the
	// configuration (already taken down).
	Offline bool `json:"offline"`
	// Reason explains a draining, not-yet-evacuated node:
	// "in-progress" while running guests remain (the loop is still
	// migrating them away), "pinned-by-image" when only suspended
	// images remain — the optimizer cannot relocate an image, so the
	// node sits un-evacuated until the owning vjobs resume or are
	// withdrawn. Empty otherwise.
	Reason string `json:"reason,omitempty"`
	// PinnedBy lists the vjobs owning the pinning images when Reason
	// is "pinned-by-image" — the operator's resume/withdraw targets.
	PinnedBy []string `json:"pinnedBy,omitempty"`
}

// Reason values of a draining, not-yet-evacuated node.
const (
	ReasonInProgress    = "in-progress"
	ReasonPinnedByImage = "pinned-by-image"
)

// resourceJSON is one dimension's used/capacity pair.
type resourceJSON struct {
	Used     int `json:"used"`
	Capacity int `json:"capacity"`
}

// nodeStatus renders one node from the configuration's per-node
// index; ok is false when the name is neither a configured node nor a
// draining (offline) one. Callers hold Exec.
func (s *Server) nodeStatus(cfg *vjob.Configuration, name string) (nodeJSON, bool) {
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
	var buf [16]*vjob.VM
	out.Running = vmNames(cfg.AppendRunningOn(buf[:0], name))
	out.Sleeping = vmNames(cfg.SleepingOn(name))
	used := cfg.Used(name)
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

// vmNames returns the names of vms in order, nil for none.
func vmNames(vms []*vjob.VM) []string {
	if len(vms) == 0 {
		return nil
	}
	out := make([]string, len(vms))
	for i, v := range vms {
		out[i] = v.Name
	}
	return out
}

// pinningVJobs resolves the sleeping images to their owning vjobs,
// deduplicated and sorted. Standalone VMs (no vjob) report their own
// name.
func pinningVJobs(cfg *vjob.Configuration, sleeping []string) []string {
	seen := make(map[string]bool, len(sleeping))
	var out []string
	for _, name := range sleeping {
		owner := name
		if v := cfg.VM(name); v != nil && v.VJob != "" {
			owner = v.VJob
		}
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	sort.Strings(out)
	return out
}

// nodeListLocked renders every node's status, name-sorted, including
// draining nodes already taken offline. Callers hold Exec; it backs
// both GET /v1/nodes and the watch/state nodes stream, so a stream
// resync converges to exactly what a poll would report.
func (s *Server) nodeListLocked() []nodeJSON {
	cfg := s.Config()
	var out []nodeJSON
	seen := make(map[string]bool)
	for _, n := range cfg.Nodes() {
		st, _ := s.nodeStatus(cfg, n.Name)
		out = append(out, st)
		seen[n.Name] = true
	}
	// Draining nodes already taken offline are still operator
	// state: list them too.
	for _, name := range s.Drains.Nodes() {
		if !seen[name] {
			st, _ := s.nodeStatus(cfg, name)
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	var out []nodeJSON
	s.Exec(func() { out = s.nodeListLocked() })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var st nodeJSON
	var ok bool
	s.Exec(func() { st, ok = s.nodeStatus(s.Config(), id) })
	if !ok {
		writeError(w, http.StatusNotFound, "unknown node %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var st nodeJSON
	var ok bool
	s.Exec(func() {
		cfg := s.Config()
		if ok = cfg.Node(id) != nil || s.Drains.IsDrained(id); !ok {
			return
		}
		if s.Drains.Drain(id) {
			ev := core.Event{Kind: core.NodeDown, At: s.Now(), Nodes: []string{id}}
			for _, v := range cfg.RunningOn(id) {
				ev.VMs = append(ev.VMs, v.Name)
			}
			s.Notify(ev)
		}
		st, _ = s.nodeStatus(cfg, id)
	})
	if !ok {
		writeError(w, http.StatusNotFound, "unknown node %q", id)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleUndrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var st nodeJSON
	var ok bool
	var hookErr error
	s.Exec(func() {
		cfg := s.Config()
		if ok = cfg.Node(id) != nil || s.Drains.IsDrained(id); !ok {
			return
		}
		if s.Drains.Undrain(id) {
			if hookErr = s.OnUndrain(id); hookErr != nil {
				s.Drains.Drain(id)
				return
			}
			s.Notify(core.Event{Kind: core.NodeUp, At: s.Now(), Nodes: []string{id}})
		}
		// Re-observe: OnUndrain may have brought the node back online.
		st, _ = s.nodeStatus(s.Config(), id)
	})
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "unknown node %q", id)
	case hookErr != nil:
		writeError(w, http.StatusConflict, "undrain %s: %v", id, hookErr)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// eventJSON is the wire form of one injected event.
type eventJSON struct {
	Kind  string   `json:"kind"`
	Nodes []string `json:"nodes,omitempty"`
	VMs   []string `json:"vms,omitempty"`
}

// maxBodyBytes bounds what a write endpoint reads from a client: a
// vjob of a thousand VMs or a batch of ten thousand events fits many
// times over, a body that never ends does not.
const maxBodyBytes = 1 << 20

// decodeStatus is the answer to a body the decoder refused: 413 when
// it ran over maxBodyBytes, 400 for anything else.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var batch []eventJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&batch); err != nil {
		writeError(w, decodeStatus(err), "events: expected a JSON array of {kind,nodes,vms}: %v", err)
		return
	}
	events := make([]core.Event, 0, len(batch))
	for i, ej := range batch {
		kind, err := core.ParseEventKind(ej.Kind)
		if err != nil {
			writeError(w, http.StatusBadRequest, "events[%d]: %v", i, err)
			return
		}
		if kind == core.ActionFailure {
			// Failures are born inside the executing plan; an external
			// injection could request a repair with no failed action.
			writeError(w, http.StatusBadRequest, "events[%d]: %s events cannot be injected", i, ej.Kind)
			return
		}
		events = append(events, core.Event{Kind: kind, Nodes: ej.Nodes, VMs: ej.VMs})
	}
	s.Exec(func() {
		at := s.Now()
		for _, ev := range events {
			ev.At = at
			s.Notify(ev)
		}
	})
	writeJSON(w, http.StatusAccepted, map[string]int{"accepted": len(events)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec VJobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&spec); err != nil {
		writeError(w, decodeStatus(err), "vjobs: %v", err)
		return
	}
	if spec.Name == "" || len(spec.VMs) == 0 {
		writeError(w, http.StatusBadRequest, "vjobs: a vjob needs a name and at least one VM")
		return
	}
	seen := make(map[string]bool, len(spec.VMs))
	for _, v := range spec.VMs {
		if v.Name == "" {
			writeError(w, http.StatusBadRequest, "vjobs: VM with empty name")
			return
		}
		if seen[v.Name] {
			writeError(w, http.StatusBadRequest, "vjobs: duplicate VM name %s", v.Name)
			return
		}
		seen[v.Name] = true
		if v.CPU < 0 || v.Memory < 0 {
			writeError(w, http.StatusBadRequest, "vjobs: VM %s has negative demand", v.Name)
			return
		}
		for i, p := range v.Phases {
			if p.CPU < 0 || p.Seconds < 0 {
				writeError(w, http.StatusBadRequest, "vjobs: VM %s phase %d has negative cpu or seconds", v.Name, i)
				return
			}
		}
	}
	var err error
	s.Exec(func() { err = s.Submit(spec) })
	if err != nil {
		writeError(w, http.StatusConflict, "vjobs: %v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"submitted": spec.Name})
}

func (s *Server) handleWithdraw(w http.ResponseWriter, r *http.Request) {
	if s.Withdraw == nil {
		writeError(w, http.StatusNotImplemented, "no vjob withdrawer")
		return
	}
	name := r.PathValue("name")
	var err error
	s.Exec(func() { err = s.Withdraw(name) })
	if err != nil {
		writeError(w, http.StatusConflict, "vjobs: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"withdrawn": name})
}
