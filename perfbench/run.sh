#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload subsim-er --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, the go command's telemetry and
# config, binary, graph files, graph fingerprints) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=

commit=
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	if [ -n "$commit" ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit+dirty"
	fi
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" --commit "$commit" "$@"
