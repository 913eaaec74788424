#!/usr/bin/env bash
# Builds the load generator and the system under test from source, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash loadbench/run.sh --workload archive-ticks --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, run data and span files all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/loadbench"
go build -o "$out/bin/loadgen" ./cmd/loadgen
go build -o "$out/bin/sut" ./cmd/sut
cd "$root"
exec "$out/bin/loadgen" -sut "$out/bin/sut" -workdir "$out" "$@"
