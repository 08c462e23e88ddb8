#!/usr/bin/env bash
# Builds the netpart benchmark from source and runs it with the given
# arguments, for example:
#
#   bash bench/run.sh --workload advisor --seed 1 --seconds 26 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ there: the Go build cache, the
# benchmark binary and the run-time scratch files.
set -euo pipefail

cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
# The build needs nothing beyond the standard library and this
# repository: no downloads, no other toolchain, no workspace.
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$out/netpart-bench" .)
exec "$out/netpart-bench" "$@"
