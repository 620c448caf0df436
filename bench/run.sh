#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, e.g.
#
#   bash bench/run.sh --workload paper_study --seed 42 --seconds 10 --trace 0
#
# The Go build cache, the binaries, scratch data, and results files all
# stay under .bench_build/ in the checkout. See bench/README.md.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (go.mod, cmd/, and bench/ are needed)" >&2
	exit 2
fi

build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"

go -C bench build -o "$build/bin/lagbench" .
exec "$build/bin/lagbench" -root "$PWD" -build "$build" "$@"
