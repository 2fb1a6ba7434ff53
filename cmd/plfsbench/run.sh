#!/usr/bin/env bash
# Builds plfsbench from source and runs it with the given arguments, from
# the root of a checkout. Everything the build leaves behind — the Go
# build cache and scratch space included — goes under .bench_build/, so a
# run reads and writes only inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/plfsbench" ./cmd/plfsbench
exec "$build/plfsbench" "$@"
