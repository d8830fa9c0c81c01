#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#	bash perfbench/run.sh --workload onboard --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOPATH="$root/.bench_build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C perfbench -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
