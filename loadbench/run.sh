#!/usr/bin/env bash
# Builds dpeserver and the load generator from this checkout, then runs
# the benchmark. Run from the repository root:
#
#   bash loadbench/run.sh --workload matrix-bulk --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and each run's data directories stay
# inside the checkout (.bench_build, .bench_run).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/loadbench" && go build -o "$out/dpeserver" repro/cmd/dpeserver && go build -o "$out/loadbench" .) >&2
exec "$out/loadbench" --server "$out/dpeserver" --work-dir "$root/.bench_run" "$@"
