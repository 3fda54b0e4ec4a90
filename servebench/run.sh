#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash servebench/run.sh --workload hot-cluster --seed 1 --seconds 25 --trace 0
#
# Every build product (binary, Go build cache, temporary files) stays in
# .bench_build/ under the current directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
