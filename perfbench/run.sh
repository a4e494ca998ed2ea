#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload stream-400 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare -parent DIR -change DIR
#
# The Go build cache, GOPATH and the go command's own config and telemetry
# files live in .bench_build too, so a run writes nothing outside the
# checkout; GOPROXY=off keeps the build from fetching any module.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
go build -C perfbench -o "../$out/perfbench" .
exec "$out/perfbench" "$@"
