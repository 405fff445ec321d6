#!/usr/bin/env bash
# Runs every workload once, each in its own process, and records the results.
#
#   zvbench/run_zvbench.sh [--seed N] [--traced] [--seconds S] [--out FILE]
#
# Prints every metric as `workload metric value unit`, and appends one JSON
# record per workload to FILE (default .bench_build/zvbench-seed<N>-trace<T>.jsonl):
#   {"workload": ..., "seed": N, "trace": 0|1, "result": {correct, attempted, failed, metrics}}
# --traced runs the same operations with every other episode traced and
# reports the per-layer metrics. Exits non-zero if any workload fails its
# output check. Compare two sets of records with zvbench/compare.py.

set -uo pipefail
cd "$(dirname "$0")/.."

seed=1
trace=0
seconds=10
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed N] [--traced] [--seconds S] [--out FILE]" >&2
       exit 2 ;;
  esac
done
out="${out:-.bench_build/zvbench-seed${seed}-trace${trace}.jsonl}"
mkdir -p "$(dirname "$out")" .bench_build
: > "$out"
tmp="$(mktemp .bench_build/zvbench-run.XXXXXX)"
trap 'rm -f "$tmp"' EXIT

status=0
for workload in explore many_groups scan_burst epoch_churn; do
  if ! python3 zvbench/run.py --workload "$workload" --seed "$seed" \
       --seconds "$seconds" --trace "$trace" > "$tmp"; then
    echo "run_zvbench: $workload failed" >&2
    status=1
  fi
  grep -v '^{' "$tmp"
  last="$(tail -n 1 "$tmp")"
  if [[ "$last" == \{* ]]; then
    printf '{"workload":"%s","seed":%s,"trace":%s,"result":%s}\n' \
      "$workload" "$seed" "$trace" "$last" >> "$out"
  fi
done
echo "run_zvbench: results in $out" >&2
exit "$status"
