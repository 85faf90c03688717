#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash vmtbench/run.sh --workload paper-wa-1k --seed 1802 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache
# stay inside .bench_build/ so that nothing is written outside the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/vmtbench" && go build -o "$out/vmtbench" .)
exec "$out/vmtbench" "$@"
