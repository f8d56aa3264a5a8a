#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/cmtbench" .) >&2
exec "$out/cmtbench" "$@"
