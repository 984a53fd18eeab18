#!/usr/bin/env bash
# Builds the load rig from source and runs it. Everything the build and the
# run leave behind stays inside the checkout: the binary and the Go build
# cache under .bench_build/, traces and temporary state under bench/out/.
#
#   bash bench/run.sh --workload fanout-shared --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local
go build -o .bench_build/loadrig ./bench/loadrig
exec .bench_build/loadrig -out bench/out "$@"
