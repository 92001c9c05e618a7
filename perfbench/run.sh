#!/usr/bin/env bash
# Builds the privacy3d server and the perfbench load generator from the
# checkout's sources, then runs one benchmark invocation. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload miss-1m --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, run directories and traces.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/privacy3d" ./cmd/privacy3d
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --server "$out/privacy3d" "$@"
