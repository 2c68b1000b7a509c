#!/usr/bin/env bash
# Builds bench/aquabench from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload cell_lbm64 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare set1.jsonl set2.jsonl
#
# The Go build cache, the binary and every scratch file stay under
# .bench_build/ in the checkout. A checkout without the simulator sources
# fails the build, so the script exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go -C bench build -o "$build/aquabench" ./aquabench
exec "$build/aquabench" "$@"
