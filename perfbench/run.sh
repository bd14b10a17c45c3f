#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload study|ingest|objects --seed N --seconds S --trace 0|1
#
# Everything the build writes stays inside .bench_build/ of the checkout:
# the binary, the Go build cache, the build's temporary files, GOPATH,
# and the Go config directory (where the go command keeps its telemetry
# counters). Without the
# program's sources next to perfbench/ the script exits non-zero without
# printing a result.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root, next to go.mod" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
