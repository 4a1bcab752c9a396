#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the build
# and the run write inside the checkout: the binary, the Go build cache and
# Go's temporary files go under .bench_build/, run output under bench/out/.
# Run from the repository root; arguments go to the benchmark unchanged:
#
#	bash bench/run.sh --workload redis_zipf_read --seed 1 --seconds 15 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
