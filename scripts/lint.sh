#!/usr/bin/env bash
# Runs the static-analysis gate: gofmt, go vet (of the root module and
# of the ledger module) plus the repository's own invariant firewall
# (cmd/dynsumlint — see internal/lint and DESIGN.md §11). Fails on any
# diagnostic; intentional exceptions belong in the source as
# `//lint:allow <pass> <reason>` directives, not here.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

echo "[lint] gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "[lint] gofmt: the files above are not formatted (make fmt)"
	exit 1
fi

echo "[lint] go vet ./..."
go vet ./...

# The ledger (ledger/go.mod) is its own module, so ./... skips it, but it
# builds on core, persist, pag and serve: vet it so a break in the API it
# relies on fails here as it does in CI.
echo "[lint] (cd ledger && go vet .)"
(cd ledger && go vet .)

echo "[lint] dynsumlint ./..."
go run ./cmd/dynsumlint ./...

echo "[lint] ok"
