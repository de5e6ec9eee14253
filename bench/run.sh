#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; everything the build and the runs write
# (Go build cache, binary, trace output) stays under .bench_build/.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
