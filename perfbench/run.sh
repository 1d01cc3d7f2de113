#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload fig6-detailed --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build) in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -work "$build/work" "$@"
