#!/usr/bin/env bash
# Builds brokerd and the benchmark from this checkout and runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash brokerbench/run.sh --workload serve-mem --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/brokerd" || ! -f "$root/brokerbench/go.mod" ]]; then
	echo "run.sh: run from the root of a full checkout (go.mod, cmd/brokerd and brokerbench/ not all found)" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS=-buildvcs=false

# With telemetry on (the default mode is "local") every go command may
# start a detached telemetry child that outlives this script. "go
# telemetry off" itself starts none and records the mode under
# XDG_CONFIG_HOME, so the go commands below start none either.
go telemetry off
go build -o "$out/brokerd" ./cmd/brokerd
go -C brokerbench build -o "$out/brokerbench" .
exec "$out/brokerbench" -brokerd "$out/brokerd" -work "$out/work" "$@"
