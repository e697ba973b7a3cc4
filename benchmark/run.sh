#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs
# it there. Everything the Go toolchain writes — build cache, temporary
# files, its telemetry counters (which go under the user's configuration
# directory), the binary — stays inside the checkout.
#
#   bash benchmark/run.sh --workload plan_mix --seed 42 --seconds 20 --trace 0
#   bash benchmark/run.sh set -o a.json
#   bash benchmark/run.sh compare a.json b.json
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go -C benchmark build -o "$build/ghostdb-benchmark" .
exec "$build/ghostdb-benchmark" "$@"
