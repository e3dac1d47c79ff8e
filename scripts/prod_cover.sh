#!/usr/bin/env bash
# prod_cover.sh — which code of internal/ production traffic reaches.
#
# Builds every production entry point with coverage over all of cwcs
# (cmd/experiments, cmd/entropyd, cmd/planviz, examples/*, and the
# benchmark from its own module directory, unedited), runs what they
# run in use — `experiments all -quick`, entropyd periodic and
# event-driven, each example, planviz on its example cluster, each
# benchmark workload for 2 s with the harness's spans off and on (on
# also measures the per-layer metrics, cp.Solver.Minimize among them)
# — and writes the per-function coverage of internal/ to
# prod-cover.txt, least covered first. A function at 0 % there is
# reached by tests alone: check this census before deleting code
# (DESIGN §4). A function production calls can still hold a branch it
# never takes, so prod-cover-blocks.txt lists every coverage block of
# internal/ that no binary ran, by file, the file with the most
# never-run statements first, each line "start,end statements". One to
# three minutes.
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
trap 'rm -rf "$work"' EXIT
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
for e in $examples; do run "$e"; done
"$work/bin/planviz" -example >"$work/cluster.json"
run planviz -timeout 1s "$work/cluster.json"
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
