#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash lumosbench/run.sh --workload <train|sim-sync|sim-gossip|serve|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#   bash lumosbench/run.sh compare <base-results-dir> <change-results-dir>
#
# Run it from the repository root. Everything it builds or writes stays in
# that directory: the Go build cache and binary under .bench_build/, result
# records, CPU profiles and traces under .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly PPROF_TMPDIR="$build/tmp"
LUMOSBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export LUMOSBENCH_COMMIT

go build -C "$root/lumosbench" -o "$build/lumosbench" .
exec "$build/lumosbench" "$@"
