#!/usr/bin/env bash
# Builds the rig from source into .bench_build/ (the only place it writes)
# and runs it from the checkout root. BENCHMARK.json names this script.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$root/.bench_build"
go -C "$(dirname "$0")" build -o "$root/.bench_build/mvrig" .
exec "$root/.bench_build/mvrig" "$@"
