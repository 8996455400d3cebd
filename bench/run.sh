#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build writes — binary, build cache, module cache — stays
# under .bench_build/ in the current directory (the checkout's root), so a
# run reads and writes nothing outside its checkout.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$bench" && go build -o "$build/p2go-bench" .) >&2
exec "$build/p2go-bench" "$@"
