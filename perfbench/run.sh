#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload raise --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, temporary files, the toolchain's telemetry counters and the
# binary) stays under .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || ! grep -qx 'module cmm' go.mod; then
	echo "perfbench: run from the root of the cmm repository" >&2
	exit 1
fi

# The official Go distribution installs here; use it when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
