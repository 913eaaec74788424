#!/usr/bin/env bash
# bench.sh — run the throughput benchmarks and record the results as
# BENCH_<date>.json at the repo root, building the benchmark trajectory the
# ROADMAP calls for. CI runs this and uploads the JSON as an artifact;
# numbers quoted in README.md come from these files.
#
# Usage:
#   scripts/bench.sh [bench-regexp]          # default: throughput + dispatch
#   BENCHTIME=2s scripts/bench.sh            # longer measurement window
set -euo pipefail
cd "$(dirname "$0")/.."

# The default matrix records ingest throughput (BenchmarkThroughput*:
# BenchmarkThroughputBatched sweeps GOMAXPROCS × batch size; the engine is
# unsharded, so there is no shard axis),
# subscription-dispatch cost (BenchmarkBroadcastSubscribers: population
# × matched-fraction; the 1%-matched column must stay ≥10× cheaper than
# 100%-matched), the durability costs (BenchmarkWALAppend: ingest with
# the WAL off vs. on; BenchmarkSnapshotRestore: snapshot write and full
# recovery), and the tiered-memory accuracy/footprint trade
# (BenchmarkTieredAccuracy: recall@100 and bytes/pair per MaxPairs ×
# sketch-epsilon cell; the tailed cells must beat exact-only recall at
# the same budget).
bench="${1:-BenchmarkThroughput|BenchmarkBroadcastSubscribers|BenchmarkWALAppend|BenchmarkSnapshotRestore|BenchmarkTieredAccuracy}"
out="BENCH_$(date -u +%F).json"
# Never clobber an existing (possibly committed, possibly hand-annotated)
# record: same-day reruns get a time-suffixed file instead.
if [ -e "$out" ]; then
  out="BENCH_$(date -u +%F_%H%M%S).json"
fi

raw="$(go test -run '^$' -bench "$bench" -benchmem -benchtime "${BENCHTIME:-1s}" .)"
printf '%s\n' "$raw" >&2

# go test suffixes every benchmark name with "-GOMAXPROCS" when it is not
# 1 (e.g. procs-1/batch-64 becomes procs-1/batch-64-4 on a 4-CPU runner). Strip that
# machine detail at record time so names — and therefore the docs/s diff
# below — stay comparable across machines; the value itself is kept as a
# top-level field. GOMAXPROCS defaults to the processor count go sees.
procs="${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}"

{
  printf '{\n'
  printf '  "date": "%s",\n' "$(date -u +%FT%TZ)"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "gomaxprocs": %s,\n' "$procs"
  printf '  "cpu": %s,\n' "$(printf '%s\n' "$raw" | awk -F': ' '/^cpu:/ {printf "\"%s\"", $2; found=1} END {if (!found) printf "\"unknown\""}')"
  printf '  "benchmarks": [\n'
  printf '%s\n' "$raw" | awk -v procs="$procs" '
    /^Benchmark/ {
      name = $1
      if (procs != 1) sub("-" procs "$", "", name)
      printf "%s    {\"name\": \"%s\", \"iterations\": %s", sep, name, $2
      # Remaining fields come in value-unit pairs (ns/op, docs/s, B/op, ...).
      for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9]+/, "_", unit)
        printf ", \"%s\": %s", unit, $i
      }
      printf "}"
      sep = ",\n"
    }
    END { print "" }
  '
  printf '  ]\n}\n'
} > "$out"

echo "wrote $out" >&2

# Diff docs/s against the newest committed benchmark record, so every job
# log shows the throughput trajectory at a glance. The generator writes one
# benchmark per line and the optional hand-annotated "baseline" section
# comes after the main array, so a line-oriented scrape that stops at
# "baseline" is exact.
bench_docs() {
  sed -n '/"baseline"/q; s/.*"name": "\([^"]*\)".*"docs_s": \([0-9.eE+-]*\)[,}].*/\1 \2/p' "$1"
}
prev="$(git ls-files 'BENCH_*.json' | sort | tail -n 1 || true)"
if [ -n "$prev" ] && [ "$prev" != "$out" ]; then
  echo "docs/s delta vs committed $prev:" >&2
  {
    bench_docs "$prev" | sed 's/^/old /'
    bench_docs "$out" | sed 's/^/new /'
  } | awk '
    $1 == "old" { old[$2] = $3; next }
    { new[$2] = $3; order[n++] = $2 }
    END {
      for (i = 0; i < n; i++) {
        name = order[i]
        if (!(name in old)) { printf "  %-45s %12.0f docs/s (new benchmark)\n", name, new[name]; continue }
        if (old[name] == 0) continue
        delta = (new[name] - old[name]) / old[name] * 100
        printf "  %-45s %12.0f -> %.0f docs/s (%+.1f%%)\n", name, old[name], new[name], delta
      }
    }
  ' >&2
else
  echo "no committed BENCH_*.json to diff against" >&2
fi
