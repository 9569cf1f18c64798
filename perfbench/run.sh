#!/usr/bin/env bash
# run.sh builds the programs under test (cmd/rtexperiments, cmd/rtsyncd) and
# the benchmark program (perfbench) from this checkout's sources, then runs
# one workload:
#
#   bash perfbench/run.sh --workload analysis-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in that root (Go's build cache included); the last line of
# standard output is the result JSON (see perfbench/README.md).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rtexperiments" ] || [ ! -d "$root/cmd/rtsyncd" ]; then
	echo "perfbench: run from the root of an rtsync checkout (cmd/rtexperiments and cmd/rtsyncd not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/" ./cmd/rtexperiments ./cmd/rtsyncd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
