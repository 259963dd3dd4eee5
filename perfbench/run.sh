#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload archive-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build): the Go build cache, the binary, tenant snapshots and
# the span file of a traced run.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build" "$@"
