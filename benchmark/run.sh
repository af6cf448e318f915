#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside it) and
# runs it with the arguments given. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload sim-mrd --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/mrdbench" .)
exec "$out/mrdbench" "$@"
