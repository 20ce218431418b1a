#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes stays
# inside the checkout: the Go build cache and the binary under .bench_build/,
# trace files and temporary index directories under bench/out/.
#
#   bash bench/run.sh --workload adhoc_miss --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                 # all four workloads, end to end then traced
#   bash bench/run.sh -check          # every workload twice, compared with the bounds
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$here/out" "$@"
