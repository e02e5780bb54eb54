#!/usr/bin/env bash
# Builds the perfbench program from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload eval-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and toolchain file (compiler
# cache, module cache, telemetry) stays under .bench_build in the checkout;
# nothing is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOENV=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
