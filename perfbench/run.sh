#!/usr/bin/env bash
# Builds the benchmark and the heteropard daemon from this checkout's
# sources, then runs one measurement:
#
#   bash perfbench/run.sh --workload cold-het --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# live under .bench_build/ in the checkout; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

mkdir -p "$out/bin"
go -C perfbench build -o "$out/bin/perfbench" .
go -C perfbench build -o "$out/bin/heteropard" repro/cmd/heteropard
exec "$out/bin/perfbench" --daemon-bin "$out/bin/heteropard" "$@"
