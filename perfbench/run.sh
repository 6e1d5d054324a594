#!/usr/bin/env bash
# Builds the CHAOS benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload stream|bulk|dc-cap|train --seed N \
#       --seconds S --trace 0|1
#
# Run from the root of a checkout of the repo. The build cache, the binary
# and the span files all stay under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the root of a CHAOS checkout (go.mod, internal/ and perfbench/ must be there)" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOENV=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
