// Package cwcs reproduces "Cluster-Wide Context Switch of Virtualized
// Jobs" (Hermenier, Lèbre, Menaud — HPDC 2010 / INRIA RR-6929): the
// Entropy consolidation manager extended with coordinated
// run/stop/migrate/suspend/resume permutations of the cluster's VMs,
// planned for viability and cost-optimized with constraint
// programming.
//
// The root package holds the benchmark harness regenerating the
// paper's tables and figures; the implementation lives under
// internal/ (see DESIGN.md for the map) and the runnable entry points
// under cmd/ and examples/.
//
// The §4.3 optimizer is one branch-and-bound on the true plan cost
// (internal/core) over one CP model (internal/cp), raced by a
// portfolio of diverse workers that each build their own model and
// share the incumbent bound; a sequential solve is a portfolio of one
// (DESIGN.md §2).
//
// Beyond the paper, the daemon grows a control plane: `entropyd
// -listen :8080` mounts the HTTP operator surface of internal/api
// (DESIGN.md §7) — live configuration, executing plan with per-action
// status, Prometheus metrics, event injection, runtime vjob
// submission, and the node-maintenance workflow: POST
// /v1/nodes/{id}/drain installs a Drained placement rule and emits a
// NodeDown event, the event-driven loop evacuates the node's guests,
// and /undrain restores it. On SIGTERM the daemon finishes the
// in-flight context switch before exiting.
//
// The packing model is multi-dimensional (DESIGN.md §8): nodes and VMs
// carry resource vectors over a registry of kinds — CPU, memory,
// network bandwidth, disk I/O — with one viability constraint compiled
// per dimension a workload actually demands, a dominant-resource FFD
// baseline, per-dimension monitoring thresholds, and per-node
// per-dimension gauges on /metrics. Dimensions nothing demands compile
// away, so the paper's CPU+memory instances solve unchanged
// (`experiments multires` quantifies what the 2-D model over-commits
// on heterogeneous clusters).
//
// Context switches are bandwidth-aware (DESIGN.md §9): an executing
// migration (or remote suspend/resume) is charged at its calibrated
// wire rate on the `net` dimension of both endpoints, the plan builder
// refuses pools that oversubscribe a NIC, and the simulator meters
// in-flight transfers — re-timing them as concurrency changes — so
// durations follow actually-available bandwidth instead of memory size
// alone. Clusters without a modeled `net` capacity keep the paper's
// calibrated timings bit-for-bit (`experiments migration` measures the
// violation-seconds a transfer-blind planner buys on a
// NIC-heterogeneous cluster).
//
// The loop's failure envelope is measured, not assumed (DESIGN.md
// §10): a chaos harness replays the churn scenario under correlated
// rack failures, flapping nodes, windowed monitoring-event loss
// (survived via an anti-entropy resync sweep) and action-failure
// storms, plus a trace-replay cell driving the same loop from
// committed, versioned JSONL workload traces (internal/trace).
// `experiments chaos` reports recovery-time distributions
// (p50/p95/max) and structural-breach counts per cell;
// examples/chaos/README.md is the operator cookbook.
//
// Every reconfiguration is causally traced (DESIGN.md §11): an event
// entering the loop opens a reconfig span whose ID threads as the
// cause through debounce, carve, solve, merge, splice and every
// executed action, on both the wall and the virtual clock. Spans land
// in a lock-free ring served as JSONL or a Perfetto-loadable Chrome
// trace on /v1/trace, stream live over SSE on /v1/watch (slow clients
// are dropped, never block the loop), and aggregate into hand-rolled
// Prometheus latency histograms on /metrics. A disabled tracer costs
// zero allocations (TestNilTracerIsInertAndFree).
// examples/observability/README.md is the cookbook.
package cwcs
