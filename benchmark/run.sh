#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json's command). Run from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload fanout --seed 1 --seconds 27 --trace 0
#
# It builds the benchmark from the checkout's own source and runs it.
# Everything it writes — the Go build cache, the binary, journals, span
# files — stays under .bench_build in the checkout. By hand,
# `go run ./benchmark -workload fanout` does the same with your own cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: run from the root of a checkout that has the program's source (go.mod, internal/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Keep everything the go command writes (build cache, temporary files, its
# own telemetry counters) inside the checkout, and ignore the user's go env.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
# The module vendors its one dependency: build offline with the toolchain at hand.
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOPROXY=off

go build -buildvcs=false -o "$build/safeweb-benchmark" ./benchmark
exec "$build/safeweb-benchmark" -work "$build/work" "$@"
