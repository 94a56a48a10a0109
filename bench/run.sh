#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh run [-trace] [-seed n]      # every workload, see README.md
#   bash bench/run.sh compare A B
#
# Everything the build writes — the Go build cache included — stays under
# .bench_build/ in the checkout; the benchmark needs the standard library only.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -trimpath -o "$build/capsys-bench" .)
cd "$root"
exec "$build/capsys-bench" "$@"
