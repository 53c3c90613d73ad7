#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs one
# workload, e.g.
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# perfbench/ is a Go module of its own (module path manirank/perfbench, with
# manirank replaced by the checkout root), so the root module's build and
# tests never see it while it can still import manirank/internal/...
# Build caches, temporary files and the binary stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
