#!/bin/sh
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#	sh perfbench/run.sh --workload tables --seed 1993 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, module
# and telemetry directories) and the binary stay under .bench_build/ in
# the checkout. Outside a checkout of the whole repository the build
# fails, and so does this script.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
