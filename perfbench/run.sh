#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it.
# Every build artefact, cache and trace stays in .bench_build/ at the
# checkout root. Usage, from the checkout root:
#
#   bash perfbench/run.sh --workload tpch --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Build beside the binary and rename over it, so a run still executing
# the previous build is never handed a half-written file.
go -C "$root/perfbench" build -o "$build/perfbench.$$" .
mv -f "$build/perfbench.$$" "$build/perfbench"

cd "$root"
exec "$build/perfbench" "$@"
