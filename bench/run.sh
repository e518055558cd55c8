#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build bench/ and run it with the
# given arguments. Everything the build and the run write — Go build
# cache, binary, WAL scratch — stays in <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The module has no dependencies outside the checkout: never reach out.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/bench" .)
export TMPDIR="$out/tmp"
exec "$out/bench" "$@"
