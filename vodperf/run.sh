#!/usr/bin/env bash
# Builds the vodperf benchmark from this checkout's sources and runs it
# with the given arguments, from the root of the checkout:
#
#   bash vodperf/run.sh --workload plan-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/vodperf" && go build -buildvcs=false -o "$out/vodperf" .)
exec "$out/vodperf" "$@"
