#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout that holds this
# script and runs it with the given arguments. Build cache, binary, campaign
# run directories and span files all stay under <checkout>/.bench_build.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out-dir "$out" "$@"
