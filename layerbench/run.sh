#!/usr/bin/env bash
# Builds the layer benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash layerbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash layerbench/run.sh compare <base.json> <new.json>
#   bash layerbench/run.sh selftest
# Build products, the Go build cache and result records stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C "$root/layerbench" build -o "$out/layerbench" . >&2
exec "$out/layerbench" "$@"
