#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload chain-3hop --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the build writes (Go build
# cache, binary, traces) stays under .bench_build/ in that directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
