#!/usr/bin/env bash
# run.sh — build the ledger benchmark from source and run it from the
# repository root, passing every argument through:
#
#   bash ledger/run.sh --workload warm-lookup --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the go command's own config and
# telemetry, temporary files, the binaries, the generated programs and
# the spans.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd ledger && go build -o "$out/bin/ledger" .)
exec "$out/bin/ledger" "$@"
