#!/usr/bin/env bash
# Builds cmd/server and perfbench from this checkout into .bench_build,
# then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. The Go build cache lives in
# .bench_build too, and telemetry is off, so the benchmark writes nothing
# outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"
go build -o "$build/bin/server" ./cmd/server
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
