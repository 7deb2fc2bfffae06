#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it.
# Everything the toolchain writes (build cache included) stays inside the
# checkout; arguments pass through to the binary (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/orchestra-bench" .)
cd "$here"
exec "$build/orchestra-bench" "$@"
