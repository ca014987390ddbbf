#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it.
#
#   bash simbench/run.sh --workload fleet256 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (the Go build cache
# and the binary) lands in .bench_build/ under the current directory, so
# the benchmark writes nothing outside the checkout. Go telemetry and the
# user's go env file are redirected there too, and module fetches are
# disabled: the benchmark needs only the standard library and the
# simulator module one directory up.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

# The simulator's own module must sit next to the benchmark; without it
# there is nothing to measure.
if [[ ! -f "$root/go.mod" ]]; then
	echo "simbench: no simulator module (go.mod) in $root" >&2
	exit 2
fi

go build -C "$root/simbench" -o "$out/simbench" . >&2
exec "$out/simbench" "$@"
