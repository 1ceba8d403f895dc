#!/usr/bin/env bash
# Builds the sketchd service benchmark from the source in this checkout
# and runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload ingest|adaptive|mixed --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and the runs' data directories stay
# under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd perfbench && go build -o "$out/perfbench" .)
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
