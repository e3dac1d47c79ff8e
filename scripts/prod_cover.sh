#!/usr/bin/env bash
# prod_cover.sh — which code of internal/ production traffic reaches.
#
# Builds every production entry point with coverage over all of cwcs
# (cmd/experiments, cmd/entropyd, cmd/planviz, examples/*, and the
# benchmark from its own module directory, unedited), runs what they
# run in use — `experiments all -quick`, entropyd periodic and
# event-driven, entropyd -listen under a fixed replay of operator
# requests (below), each example, planviz on its example cluster, on
# that cluster asked to resume a sleeping VM and on the daemon's
# GET /v1/config body, each
# benchmark workload for 2 s with the harness's spans off and on (on
# also measures the per-layer metrics, cp.Solver.Minimize among them)
# — and writes the per-function coverage of internal/ to
# prod-cover.txt, least covered first. A function at 0 % there is
# reached by tests alone: check this census before deleting code
# (DESIGN §4). A function production calls can still hold a branch it
# never takes, so prod-cover-blocks.txt lists every coverage block of
# internal/ that no binary ran, by file, the file with the most
# never-run statements first, each line "start,end statements". One to
# two minutes (75 s on a 2-core Xeon VM with a warm build cache).
#
# The replay starts `entropyd -listen 127.0.0.1:0 -workers 1`, reads
# the address it bound from its output and sends, with curl, requests
# whose answer does not depend on how far virtual time has run: every
# GET route, the two event streams each cut by --max-time, a drain and
# an undrain, a malformed body, an unknown node, a valid event batch,
# and a vjob too large for any node, which stays waiting and so can
# always be withdrawn. A step that gets another status fails the
# census. The GET /v1/config body is kept: planviz reads it once the
# daemon has exited. Then SIGTERM: the daemon must have exited, with
# status 0, within 10 s. A trap kills it and waits on every other
# exit.
#
# With --check it is a gate: every function at 0 % must be listed in
# scripts/prod_cover_zero.txt (one "file:function reason" a line, the
# file relative to the module root, no line number), and every listed
# function must still be at 0 %. It compares reachability only, never
# percentages, so timing moves it only where a function is reached on
# some runs alone.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
daemon=
cleanup() {
	if [ -n "$daemon" ]; then
		kill -KILL "$daemon" 2>/dev/null || true
		wait "$daemon" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT
mkdir -p "$work/bin" "$work/cov"
build() { go build -cover -coverpkg=cwcs/... -o "$work/bin/$1" "$2"; }
cd "$root"
examples=$(for d in examples/*/; do if [ -f "$d/main.go" ]; then basename "$d"; fi; done)
for d in cmd/experiments cmd/entropyd cmd/planviz; do build "$(basename "$d")" "./$d"; done
for e in $examples; do build "$e" "./examples/$e"; done
(cd bench && build bench .)
export GOCOVERDIR="$work/cov"
run() { echo "== $*" >&2; "$work/bin/$@" >/dev/null; }
run experiments all -quick
run entropyd -workers 2
run entropyd -workers 2 -event-driven

echo "== entropyd -listen 127.0.0.1:0 -workers 1, with the request replay" >&2
"$work/bin/entropyd" -listen 127.0.0.1:0 -workers 1 >"$work/daemon.out" &
daemon=$!
addr=
for _ in $(seq 100); do
	addr=$(sed -n 's/^control plane listening on //p' "$work/daemon.out")
	if [ -n "$addr" ]; then break; fi
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "entropyd -listen printed no address within 10 s" >&2
	exit 1
fi
# want method path [body]
req() {
	local got
	got=$(curl -s -o /dev/null -w '%{http_code}' -X "$2" ${4+--data "$4"} "http://$addr$3" || true)
	if [ "$got" != "$1" ]; then
		echo "$2 $3: status $got, want $1" >&2
		exit 1
	fi
}
# path: an event stream, read until --max-time cuts it (curl exit 28)
stream() {
	local rc=0
	curl -s -N --max-time 1 -o /dev/null "http://$addr$1" || rc=$?
	if [ "$rc" != 28 ]; then
		echo "GET $1: curl exit $rc, want 28 (cut by --max-time)" >&2
		exit 1
	fi
}
for p in /healthz /v1/config /v1/stats /v1/plan /metrics /v1/trace '/v1/trace?format=chrome' \
	/v1/violations /v1/solver /v1/nodes /v1/nodes/node00; do
	req 200 GET "$p"
done
curl -sf -o "$work/config.json" "http://$addr/v1/config"
stream /v1/watch
stream '/v1/watch/state?streams=nodes,plan,config'
req 202 POST /v1/nodes/node00/drain
req 200 POST /v1/nodes/node00/undrain
req 400 POST /v1/vjobs '{'
req 404 GET /v1/nodes/ghost
req 202 POST /v1/events '[{"kind":"load-change","nodes":["node00"]}]'
req 202 POST /v1/vjobs '{"name":"census","vms":[{"name":"census-0","cpu":64,"memory":1048576}]}'
req 200 DELETE /v1/vjobs/census
# A daemon that exited stays a zombie until waited on.
exited() { case $(ps -o stat= -p "$daemon" || true) in Z* | '') return 0 ;; esac; return 1; }
kill -TERM "$daemon"
for _ in $(seq 100); do
	if exited; then break; fi
	sleep 0.1
done
if ! exited; then
	echo "entropyd had not exited 10 s after SIGTERM" >&2
	exit 1
fi
status=0
wait "$daemon" || status=$?
daemon=
if [ "$status" != 0 ]; then
	echo "entropyd exited with status $status after SIGTERM" >&2
	exit 1
fi

for e in $examples; do run "$e"; done
"$work/bin/planviz" -example >"$work/cluster.json"
run planviz -timeout 1s "$work/cluster.json"
run planviz -timeout 1s "$work/config.json"
# The example's cluster once its plan ran, with j2 asked back: the plan
# resumes vm2. Nothing else formats a resume on every run: the daemon's
# GET /v1/plan does only when it finds one in the executing plan, which
# depends on how far virtual time ran before the request.
cat >"$work/resume.json" <<'EOF'
{
  "nodes": [
    {"name": "n1", "cpu": 1, "memory": 3072},
    {"name": "n2", "cpu": 1, "memory": 3072},
    {"name": "n3", "cpu": 1, "memory": 3072}
  ],
  "vms": [
    {"name": "vm1", "vjob": "j1", "cpu": 1, "memory": 2048, "state": "running", "node": "n1"},
    {"name": "vm2", "vjob": "j2", "cpu": 1, "memory": 2048, "state": "sleeping", "node": "n2"},
    {"name": "vm3", "vjob": "j3", "cpu": 1, "memory": 1024, "state": "running", "node": "n3"}
  ],
  "targets": {"j2": "running"}
}
EOF
run planviz -timeout 1s "$work/resume.json"
for w in solve_mono solve_sliced plan_large churn_ev api_mixed; do
	for t in 0 1; do run bench --workload "$w" --seed 1 --seconds 2 --trace "$t"; done
done
go tool covdata func -i="$work/cov" -pkg=cwcs/internal/... >"$work/func.txt"
{
	grep -v '^total' "$work/func.txt" | awk '{print $NF "\t" $0}' | sort -n -s | cut -f2-
	grep '^total' "$work/func.txt"
} >prod-cover.txt
# Blocks: counts summed over every binary's profile; file totals first,
# so sort puts the files with the most never-run statements on top.
go tool covdata textfmt -i="$work/cov" -pkg=cwcs/internal/... -o="$work/blocks.txt"
awk 'NR > 1 { stmts[$1] = $2; runs[$1] += $3 }
END {
	for (b in runs) if (runs[b] == 0) { split(b, at, ":"); total[at[1]] += stmts[b] }
	for (b in runs) if (runs[b] == 0) {
		split(b, at, ":"); split(at[2], line, ".")
		print total[at[1]] "\t" at[1] "\t" line[1] "\t" at[2] "\t" stmts[b]
	}
}' "$work/blocks.txt" | sort -t "$(printf '\t')" -k1,1nr -k2,2 -k3,3n |
	awk -F '\t' '$2 != file { file = $2; print file "\t" $1 " never-run statements" } { print "\t" $4 "\t" $5 }' >prod-cover-blocks.txt
echo "wrote $root/prod-cover.txt and $root/prod-cover-blocks.txt" >&2
[ "${1:-}" = --check ] || exit 0
allow=scripts/prod_cover_zero.txt
awk '$NF == "0.0%" { sub(/^cwcs\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1 ":" $2 }' prod-cover.txt | sort >"$work/zero"
awk '!/^#/ && NF { print $1 }' "$allow" | sort >"$work/allowed"
unreached=$(comm -23 "$work/zero" "$work/allowed")
stale=$(comm -13 "$work/zero" "$work/allowed")
if [ -n "$unreached" ]; then
	printf 'functions production traffic no longer reaches; delete them, or list them in %s with a reason:\n%s\n' "$allow" "$unreached" >&2
fi
if [ -n "$stale" ]; then
	printf 'entries of %s that production traffic reaches or that are gone; drop them:\n%s\n' "$allow" "$stale" >&2
fi
[ -z "$unreached$stale" ] || exit 1
echo "every function at 0 % is listed in $allow, and every entry is at 0 %" >&2
