#!/usr/bin/env bash
# Builds wabench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/wabench/run.sh --workload proto-w1-adaptive --seed 42 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout, and the toolchain never goes to the
# network: the module needs nothing outside the repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C cmd/wabench build -o "$out/wabench" .
exec "$out/wabench" "$@"
