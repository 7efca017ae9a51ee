#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash gcsperf/run.sh --workload stream --seed 7 --seconds 25 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, module cache, telemetry, temporary files, the binary) stays under
# .bench_build/ in the current directory, and the toolchain never goes to the
# network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/go"
mkdir -p "$out/cache" "$out/modcache" "$out/path" "$out/config" "$out/tmp"
export GOCACHE="$out/cache" GOMODCACHE="$out/modcache" GOPATH="$out/path" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

(cd "$root/gcsperf" && go build -o "$out/gcsperf" .)
exec "$out/gcsperf" "$@"
