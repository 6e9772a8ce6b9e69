#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash bpbench/run.sh --workload paper-suite --seed 42 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bpbench" && go build -o "$out/bpbench" .)
exec "$out/bpbench" "$@"
