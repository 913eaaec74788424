#!/usr/bin/env bash
# Runs the traced pass of every workload: for each one it prints every
# per-layer metric with its unit and sample count, the self time per layer,
# and the tracing overhead, and writes the spans to
# .bench_build/traces/<workload>-seed<seed>.jsonl. Run from the repository
# root:
#
#   bash loadbench/trace.sh [seed] [seconds]
set -euo pipefail

seed=${1:-1}
seconds=${2:-25}
for w in tweets-ingest archive-ticks bounded-durable; do
	echo "== $w (seed $seed, $seconds s)"
	bash loadbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 2>&1 >/dev/null
done
