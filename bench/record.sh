#!/usr/bin/env bash
# Records two sets of runs of one commit, interleaved: for every
# workload and seed one untraced run into each set, the set that goes
# first alternating, then one traced run into each at the first seed.
# Interleaved, because this machine's speed drifts by tens of percent
# over twenty minutes: two sets recorded one after the other compare two
# machines. The sets must pass `bench -agree A B`. A run that fails ends
# the recording: a set with a hole in it is not a set.
#   bash bench/record.sh A.jsonl B.jsonl [seed...]      (default seeds 1..10)
set -euo pipefail
a=$1
b=$2
shift 2
seeds=${*:-1 2 3 4 5 6 7 8 9 10}
seconds=13 # run_seconds in BENCHMARK.json
run() { bash "$(dirname "$0")/run.sh" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" --record "$4" | tail -n 1; }
rm -f "$a" "$b"
for w in solve_mono solve_sliced plan_large churn_ev api_mixed; do
	for s in $seeds; do
		if ((s % 2)); then first=$a second=$b; else first=$b second=$a; fi
		run "$w" "$s" 0 "$first"
		run "$w" "$s" 0 "$second"
	done
	run "$w" "${seeds%% *}" 1 "$a"
	run "$w" "${seeds%% *}" 1 "$b"
done
