#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off GOWORK=off
go -C "$root/perfbench" build -trimpath -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
