#!/usr/bin/env bash
# Builds the serving benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload wire --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, replay
# traces, span dumps) stays under .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
