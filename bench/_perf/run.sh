#!/usr/bin/env bash
# Builds the XLF wall-clock benchmark from this checkout's sources and runs
# it, passing every argument through:
#
#   bash bench/_perf/run.sh --workload home --seed 1 --seconds 20 --trace 0
#
# The binary and everything the go command writes (build cache, temporary
# files, GOPATH, telemetry counters) stay under .bench_build/ at the
# repository root. Without the repository around bench/_perf (its go.mod
# replaces module xlf with ../..) the build fails and the script exits
# non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench/_perf" && go build -o "$out/xlf-perf" .)
exec "$out/xlf-perf" "$@"
