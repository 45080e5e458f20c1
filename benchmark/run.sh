#!/usr/bin/env bash
# The benchmark's one command: build the harness from source, then run it
# from the root of the checkout with the arguments given. Everything the
# build writes (binary, Go build cache) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/spoofbench" .)
cd "$root"
exec "$build/spoofbench" "$@"
