#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping
# everything the Go toolchain writes (build cache, temporary files,
# telemetry) under .bench_build in the checkout. BENCHMARK.json's
# command is this script; `go run ./benchmark` does the same from a
# developer's shell with the toolchain's usual directories.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
