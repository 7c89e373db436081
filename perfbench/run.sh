#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Build caches, the binary and traces stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
