#!/usr/bin/env bash
# bench_counts.sh REF [seed...]            (default seeds 1 2 3)
#
# Checks that this checkout decides what REF decides: per workload and
# seed, one untraced and one traced short benchmark run in a checkout
# of REF and in this one, the side that goes first alternating, then
# `bench -agree` over the two recordings. Counts repeat exactly per
# seed on any machine; times on this one are unresolved below ~25 %
# (bench/README.md). So only a count fails the check — an exact
# per-layer metric, ops_ok_ratio, alloc_mb_per_op more than 3 % above
# REF's for one seed, or a run missing from a side — and the time lines
# are printed for reading, as are the seeds whose allocation fell by
# more than 3 %: a change may allocate less, never more. About five
# minutes per seed.
#
# REF is a commit, checked out with `git worktree add --detach` beside
# this checkout and removed afterwards, or a directory that already
# holds a checkout of it.
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 REF [seed...]" >&2; exit 2; }
ref=$1
shift
seeds=${*:-1 2 3}
head=$(git rev-parse --show-toplevel)
out=$(mktemp -d)
if [ -d "$ref" ]; then
	tree=$(cd "$ref" && pwd)
	trap 'rm -rf "$out"' EXIT
else
	tree="$head-bench-counts-ref"
	git -C "$head" worktree add --detach "$tree" "$ref" >&2
	trap 'rm -rf "$out"; git -C "$head" worktree remove --force "$tree"' EXIT
fi

# run TREE WORKLOAD SEED TRACE FILE
run() { (cd "$1" && bash bench/run.sh --workload "$2" --seed "$3" --seconds 4 --trace "$4" --record "$5" >/dev/null); }
n=0
for w in solve_mono solve_sliced plan_large churn_ev api_mixed; do
	for s in $seeds; do
		for t in 0 1; do
			echo "$w seed $s trace $t" >&2
			if ((n++ % 2)); then
				run "$head" "$w" "$s" "$t" "$out/head.jsonl"
				run "$tree" "$w" "$s" "$t" "$out/ref.jsonl"
			else
				run "$tree" "$w" "$s" "$t" "$out/ref.jsonl"
				run "$head" "$w" "$s" "$t" "$out/head.jsonl"
			fi
		done
	done
done

# -agree also fails on a time median outside its bound: not this check's call.
(cd "$head" && .bench_build/bench -agree "$out/ref.jsonl" "$out/head.jsonl") >"$out/report" || true
[ -s "$out/report" ] || { echo "bench -agree printed nothing" >&2; exit 2; }
# Sort the report's lines: a per-seed allocation line "... A <ref>  B
# <head> (within 3% for one seed)" moved only if head is above ref.
touch "$out/times" "$out/fell" "$out/moved"
awk -v out="$out" '
/^DISAGREE.*\(within [0-9]+% for one seed\)/ {
	for (i = 1; i < NF; i++) { if ($i == "A") a = $(i+1); if ($i == "B") b = $(i+1) }
	print > (a > 0 && b > 0 && b < a ? out "/fell" : out "/moved"); next
}
/^DISAGREE.*(\(exact\)|no traced run|has [0-9]+ runs)/ { print > (out "/moved"); next }
{ print > (out "/times") }' "$out/report"
echo "== times and medians, A = $ref, B = this checkout (for reading) =="
cat "$out/times"
echo "== allocation fell =="
cat "$out/fell"
echo "== counts =="
if [ -s "$out/moved" ]; then
	cat "$out/moved"
	echo "counts moved against $ref"
	exit 1
fi
echo "every exact count and ops_ok_ratio equals $ref, and no seed's alloc_mb_per_op is above it (seeds: $seeds)"
