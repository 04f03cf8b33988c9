#!/usr/bin/env bash
# The benchmark's one entry point: builds bench/ into .bench_build/ at the
# repository root (Go's build cache included, so nothing is written
# outside the checkout) and runs it from there with the given arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build" bench/out
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd bench && go build -o "$build/rxl-bench" .)
exec "$build/rxl-bench" "$@"
