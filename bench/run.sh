#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json "command"): builds
# the benchmark from source inside the checkout and runs it with the
# driver's arguments (--workload --seed --seconds --trace). Everything Go
# writes — build cache included — stays under .bench_build in the
# checkout; the program writes under bench/out.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/manabench" ./bench
exec "$build/manabench" "$@"
