#!/usr/bin/env bash
# Builds the benchmark and factord from the sources of the checkout this
# script sits in, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload factor-seq --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included. The module has no external
# dependencies, and GOTOOLCHAIN=local keeps go from fetching a toolchain.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" . && go build -o "$out/factord" repro/cmd/factord) >&2
exec "$out/e2ebench" -factord "$out/factord" -workdir "$out/work" "$@"
