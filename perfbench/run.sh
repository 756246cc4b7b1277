#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it from the
# repository root (the lab's T11/T13 experiments scan the module there).
# Build cache, binary and traces stay under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload suite-full --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the root of a tenways checkout" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$out/labbench" ./cmd/labbench)
exec "$out/labbench" "$@"
