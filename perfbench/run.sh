#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; run from the
# root of the checkout. Arguments pass through (see perfbench/README.md).
# The build cache, binary, snapshots, journals and span files all live in
# the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
# Everything the go command writes stays in the build directory, and no
# setting from outside the checkout changes the build.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/runs" "$@"
