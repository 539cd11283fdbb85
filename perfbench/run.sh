#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The build cache and the binary stay under
# .bench_build/ so the run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
