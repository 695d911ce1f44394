#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload cold-web --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build/ in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
