#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The
# driver calls this from the checkout's root with
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the Go toolchain writes goes under .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$root/.bench_build/bench" .)
exec "$root/.bench_build/bench" "$@"
