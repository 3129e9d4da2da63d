#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, trace store, span
# dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no module sources in $root)" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -out "$build/perfbench-out" "$@"
