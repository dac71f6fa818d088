#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload stencil --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/perfbench in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
