#!/usr/bin/env bash
# Captures CPU and allocation profiles of the three perf-critical
# workloads: the Table-4-shaped parallel experiment runner (workers=1, so
# the profile reads as a single flame without scheduler noise), the soak
# harness's inner unit, and one layout search (dec3000, budget 300: clone,
# place, link, verify and cost per candidate). Artifacts land in profiles/
# as pprof files:
#
#   profiles/parallel_cpu.pprof    profiles/parallel_alloc.pprof
#   profiles/soak_cpu.pprof        profiles/soak_alloc.pprof
#   profiles/optimize_cpu.pprof    profiles/optimize_alloc.pprof
#
# Inspect with `go tool pprof -top profiles/parallel_cpu.pprof` (add
# -sample_index=alloc_space for the alloc profiles). BENCHTIME scales how
# long each capture runs; the fixed-iteration default keeps captures
# comparable across commits.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
mkdir -p profiles

go test -run '^$' -bench 'BenchmarkRunParallel/workers=1$' -benchtime "$BENCHTIME" \
	-cpuprofile profiles/parallel_cpu.pprof \
	-memprofile profiles/parallel_alloc.pprof . >/dev/null
echo "wrote profiles/parallel_cpu.pprof profiles/parallel_alloc.pprof"

go test -run '^$' -bench 'BenchmarkSoakUnit' -benchtime "$BENCHTIME" \
	-cpuprofile profiles/soak_cpu.pprof \
	-memprofile profiles/soak_alloc.pprof ./internal/soak >/dev/null
echo "wrote profiles/soak_cpu.pprof profiles/soak_alloc.pprof"

go test -run '^$' -bench 'BenchmarkOptimizeSearch$' -benchtime "$BENCHTIME" \
	-cpuprofile profiles/optimize_cpu.pprof \
	-memprofile profiles/optimize_alloc.pprof . >/dev/null
echo "wrote profiles/optimize_cpu.pprof profiles/optimize_alloc.pprof"

echo "--- top CPU (parallel runner) ---"
go tool pprof -top -nodecount=12 profiles/parallel_cpu.pprof | sed -n '1,20p'
