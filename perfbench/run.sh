#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload crash-killer --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the go command's local telemetry
# stay under .bench_build/ in the checkout. Without the repository's
# sources next to perfbench/ the build fails and the script exits
# non-zero.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off \
	XDG_CONFIG_HOME="$build/config"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
