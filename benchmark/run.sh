#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the Go toolchain writes (build cache, module
# cache, telemetry) and the binary itself go under .bench_build/ at the root
# of the checkout, so nothing outside the checkout is touched.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-buildvcs=auto
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C "$here" -o "$build/hermes-benchmark" .
cd "$root"
exec "$build/hermes-benchmark" "$@"
