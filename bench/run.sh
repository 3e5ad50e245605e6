#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# flags, from the repository root:
#
#   bash bench/run.sh -workload case-study [-seed N] [-seconds S] [-trace 0|1]
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory. The build
# needs the simulator's sources in the parent of bench/; without them it
# fails and the script exits non-zero before running anything.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/pipeline" ./pipeline)
exec "$build/pipeline" "$@"
