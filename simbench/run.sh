#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it, from the root of
# a pccsim checkout:
#
#   bash simbench/run.sh --workload paper-cells --seed 0 --seconds 36 --trace 0
#
# Everything the build writes (the binary, the Go build and module caches
# and the Go command's user config) stays under .bench_build in the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	cd "$root/simbench" && go build -buildvcs=false -o "$out/simbench" .
)
SIMBENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
	SIMBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
export SIMBENCH_COMMIT
exec "$out/simbench" "$@"
