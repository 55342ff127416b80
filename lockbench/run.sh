#!/usr/bin/env bash
# Builds lockbench from the source in this checkout and runs it with the
# given arguments, e.g.
#
#	bash lockbench/run.sh --workload mutex-handoff --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build in the
# checkout root: the Go build cache, the binary and the span logs.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/lockbench" .)
exec "$build/lockbench" --out "$build" "$@"
