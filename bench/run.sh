#!/usr/bin/env bash
# Builds the benchmark and the clusterd daemon from the checkout's source
# and runs the benchmark with the given flags. Run it from the
# repository root:
#
#   bash bench/run.sh --workload suite-sched --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build and module caches and Go's own
# config and telemetry files stay under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run it from the repository root, next to go.mod" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false

go -C bench build -o "$out/bench" .
go -C bench build -o "$out/clusterd" clustersched/cmd/clusterd
exec "$out/bench" --clusterd "$out/clusterd" "$@"
