#!/usr/bin/env bash
# Builds rootserve and the benchmark from source into .bench_build, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-junk --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, temporary
# recordings, per-run reports) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off

go build -o "$out/bin/rootserve" ./cmd/rootserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -rootserve "$out/bin/rootserve" "$@"
