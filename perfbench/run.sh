#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload refine --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build in
# the current directory; nothing is fetched (GOPROXY=off, GOTOOLCHAIN=local).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build/tmp" "$@"
