#!/usr/bin/env bash
# Builds predperf from source and runs it with the given arguments.  Run it
# from the repository root, for example:
#
#   bash cmd/predperf/run.sh --workload paper_suite --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the Go tool's own configuration and telemetry, the
# binary and the benchmark's temporary stores all live under .bench_build/
# in the working directory, and the build never reaches the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C cmd/predperf build -o "$out/predperf" .
exec "$out/predperf" "$@"
