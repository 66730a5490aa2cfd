#!/usr/bin/env bash
# Builds the whole-scan benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload device-scan --seed 42 --seconds 18 --trace 0
#
# The Go build cache, the binary and every scratch file the benchmark
# writes (server journal, score store) stay under .bench_build/ at the root
# of the checkout. The build is offline: no module is ever downloaded.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS= CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" -workdir "$build" "$@"
