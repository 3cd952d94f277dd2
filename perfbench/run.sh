#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload hit-heavy --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# result records and span files all stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/go-path" "$build/results"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/results" "$@"
