#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it. The build
# cache, the (empty) module cache and the binary stay inside the checkout
# (.bench_build/), so a run reads and writes nothing outside it; the module
# needs only the repository it sits in, so the network is switched off.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/fedbench" .) >&2
cd "$root"
exec "$build/fedbench" "$@"
