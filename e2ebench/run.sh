#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload adapt-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
