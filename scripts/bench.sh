#!/bin/sh
# Runs the analysis-engine benchmark suite and emits BENCH_engine.json
# at the repo root, so successive PRs can track the perf trajectory.
# The file embeds the environment (go version, GOMAXPROCS, CPU model,
# git SHA) so numbers from different machines/commits are comparable.
# Usage: scripts/bench.sh [benchtime]   (default 1s)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-1s}"
out="BENCH_engine.json"

go_version="$(go version | sed 's/^go version //')"
gomaxprocs="${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}"
cpu_model="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
[ -n "$cpu_model" ] || cpu_model="unknown"
git_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
git_dirty=""
[ -z "$(git status --porcelain 2>/dev/null)" ] || git_dirty="-dirty"

raw=$(go test -run '^$' \
	-bench 'AnalyzeSuite|ClassifyParallel|Figure3_PatternCDF|TableIII_Overview|Study_EndToEnd|LoadTraceDir|TraceDecode_(Text|V2|V2Mmap|V2Compressed)$' \
	-benchtime "$benchtime" .)

# The intra-file parallel decode bench runs separately at -cpu 1,4 so
# the baseline records both points of the scaling curve; the awk below
# keeps the cpu count in the name instead of stripping it.
rawp=$(go test -run '^$' -bench 'TraceDecode_V2ParallelBlocks' -cpu 1,4 -benchtime "$benchtime" .)
raw=$(printf '%s\n%s' "$raw" "$rawp")

printf '%s\n' "$raw"

# Write to a temp file and rename, so an interrupted run never leaves
# a truncated BENCH_engine.json under the final name.
tmp="$out.tmp-$$"
trap 'rm -f "$tmp"' EXIT

printf '%s\n' "$raw" | awk \
	-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v procs="$gomaxprocs" \
	-v go_version="$go_version" \
	-v cpu_model="$cpu_model" \
	-v git_sha="$git_sha$git_dirty" '
BEGIN {
	printf "{\n  \"date\": \"%s\",\n", date
	printf "  \"go_version\": \"%s\",\n", go_version
	printf "  \"gomaxprocs\": %s,\n", procs
	printf "  \"git_sha\": \"%s\",\n", git_sha
	printf "  \"benchmarks\": [\n"
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	# go test suffixes bench names with the GOMAXPROCS used when it is
	# not 1. For the intra-file parallel bench the cpu count IS the
	# variable under test, so fold it into the name; everywhere else
	# strip it so names stay stable across machines.
	ncpu = 1
	if (match(name, /-[0-9]+$/)) ncpu = substr(name, RSTART + 1)
	sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
	if (name ~ /ParallelBlocks/) name = name "_cpu" ncpu
	nsop = "null"; bop = "null"; allocs = "null"
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") nsop = $i
		if ($(i+1) == "B/op") bop = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, nsop, bop, allocs
}
END {
	# One canonical CPU key: prefer the line go test itself reports,
	# fall back to /proc/cpuinfo when the bench output omits it.
	if (cpu == "") cpu = cpu_model
	printf "\n  ],\n  \"cpu_model\": \"%s\"\n}\n", cpu
}
' >"$tmp"
mv "$tmp" "$out"

echo "wrote $out"
