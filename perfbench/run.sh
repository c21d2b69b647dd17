#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload live --seed 7 --seconds 30 --trace 0
#
# Everything it builds or writes (the Go build cache, the binary, WAL
# segments, trace files) stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
if [ -z "${PERFBENCH_GIT_SHA:-}" ] && [ -d .git ]; then
	PERFBENCH_GIT_SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_GIT_SHA
fi
exec "$out/perfbench" --outdir "$out" "$@"
