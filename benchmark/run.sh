#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload read_static --seed 1 --seconds 20 --trace 0
#
# It builds the harness (a module of its own, benchmark/go.mod) and hands
# over to it; the harness builds linkpredd and linkpredr. Everything the
# build writes — Go's build cache included — stays under .bench_build/ in
# the checkout, so a run neither reads nor leaves anything outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C benchmark build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
