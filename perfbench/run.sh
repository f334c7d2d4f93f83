#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh compare A.jsonl B.jsonl
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ and .perfbench/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (no go.mod/internal here)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

commit=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
if [[ "$commit" != unknown && -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]]; then
	commit="$commit+dirty"
fi
export PERFBENCH_COMMIT="$commit"
exec "$build/perfbench" "$@"
