#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload assistant-soak --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Every build artifact (the binary, the Go
# build cache, temporary files) lands under $CARGO_TARGET_DIR, default
# .bench_build, so the run writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOMODCACHE="$out/gomod" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
