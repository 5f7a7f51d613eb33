#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments:
#
#   bash perfbench/run.sh --workload summarize --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache, the binary, Go's config
# directory and every data directory a run creates live under .bench_build/,
# so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export XDG_CONFIG_HOME="${out}/config"
# Build from this checkout alone: no toolchain switch, no module download.
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "${root}/perfbench" build -o "${out}/perfbench" .
exec "${out}/perfbench" "$@"
