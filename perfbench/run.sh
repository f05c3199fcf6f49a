#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload apsp-shared-read --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write (Go build cache, checkpoint
# directories, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=none
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
TMPDIR="$out/tmp" exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
