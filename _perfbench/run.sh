#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the root of a checkout:
#
#   bash _perfbench/run.sh --workload study --seed 2019 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binary, work stores and results.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/config" TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
