#!/bin/bash
# Builds the benchmark from source and runs it. The driver starts this from
# the root of a checkout; everything it writes (the Go build cache and the
# binary included) stays under .bench_build/ and benchmark/out/ in there.
set -eu
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local
mkdir -p .bench_build
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
