#!/usr/bin/env bash
# Builds the benchmark and the discserve binary it drives, then runs one
# workload. Run it from the repository root:
#
#   bash discbench/run.sh --workload mine-dense --seed 1 --seconds 25 --trace 0
#
# Every build output, Go cache and scratch file lives under .bench_build/
# in the repository root, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/discbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "discbench: run from the repository root (need go.mod and discbench/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/discbench" && go build -o "$out/bin/discbench" .)
go build -o "$out/bin/discserve" ./cmd/discserve

exec "$out/bin/discbench" "$@"
