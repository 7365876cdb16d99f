#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-crm1 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
# The go command's caches, module path, temp files and config (telemetry
# counters live under the config directory) all stay in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --tmp "$out/tmp" "$@"
