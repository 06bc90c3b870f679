#!/usr/bin/env bash
# Builds mavrbench from the checkout this script sits in, then runs it
# from the checkout root with the given arguments, e.g.
#
#   bash benchmarks/mavrbench/run.sh --workload replay-golden --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, telemetry, temp
# files, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/benchmarks/mavrbench" && go build -o "$build/mavrbench" .)
cd "$root"
exec "$build/mavrbench" "$@"
