#!/usr/bin/env bash
# Builds swimd and the benchmark from this checkout's sources, then runs
# one benchmark invocation. Run it from the repository root:
#
#   bash bench/run.sh --workload warm-skew --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/
# in the checkout; nothing is fetched from the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/swimd || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a swimd checkout (go.mod, cmd/swimd and bench/ must exist)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false" CGO_ENABLED=0

go build -o "$build/bin/swimd" ./cmd/swimd
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" -swimd "$build/bin/swimd" -work "$build/run" "$@"
