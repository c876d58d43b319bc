#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from there; every argument goes to the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
(cd "$here" && go build -o "$build/apstdv-bench" .)
cd "$root"
exec "$build/apstdv-bench" "$@"
