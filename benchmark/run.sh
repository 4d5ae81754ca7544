#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root (where BENCHMARK.json lives). Everything the
# build writes stays under .bench_build/ at the root.
#
#   bash benchmark/run.sh --workload cluster-steady --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/benchmark" build -o "$out/e3-benchmark" .
cd "$root"
exec "$out/e3-benchmark" "$@"
