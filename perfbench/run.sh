#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload fig8 --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary live under .bench_build/, so a run
# reads and writes only inside the checkout and never reaches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

# The commit when the checkout is a git repository, else a digest of the
# Go sources, so every result names the code it measured.
if ! { [ -e "$root/.git" ] && PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null); }; then
	PERFBENCH_COMMIT="src-$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print0 |
		LC_ALL=C sort -z | xargs -0 sha256sum | sed "s|$root/||" | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
