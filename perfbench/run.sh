#!/usr/bin/env bash
# Builds the host-time benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload scan --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# files, span logs) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" -spans-dir "$build" "$@"
