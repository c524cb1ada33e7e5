#!/usr/bin/env bash
# The driver's entry point: build the benchmark from source inside the
# checkout (Go's caches included, so nothing is written outside it), then
# run one workload. Arguments pass straight through to the program, e.g.
#   bash benchmark/run.sh --workload cached_dashboard --seed 1 --seconds 12 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/gridrm-benchmark" ./benchmark
exec "$build/gridrm-benchmark" "$@"
