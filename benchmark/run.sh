#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under the checkout: the Go
# build cache and the binary in .bench_build/, WAL files, traces and
# reports in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$here/out"

# Keep the Go toolchain's own files (build cache, module cache, telemetry,
# temporary files) inside the checkout too, and off the network.
export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOBIN

(cd "$here" && go build -o "$build/selforg-benchmark" .)
cd "$root"
exec "$build/selforg-benchmark" -dir "benchmark/out" "$@"
