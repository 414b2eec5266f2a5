#!/usr/bin/env bash
# Builds the benchmark and the lrd daemon from source into .bench_build/
# (relative to the current directory, which must be the repository root)
# and runs the benchmark with the given arguments, e.g.
#
#   bash bench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare a.jsonl b.jsonl
#
# Every cache the Go toolchain writes stays under .bench_build/, and the
# toolchain never reaches the network.
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0
mkdir -p "$GOTMPDIR"
go build -C bench -o "$out/bench" .
go build -o "$out/lrd" ./cmd/lrd
exec "$out/bench" -lrd "$out/lrd" -trace-dir "$out/traces" "$@"
