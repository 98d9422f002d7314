#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sedov-task --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, Chrome traces,
# per-run reports, the temporary served-results store) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-buildvcs=auto

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
