#!/usr/bin/env bash
# Runs the Figure-7 benchmark harnesses and assembles their machine-readable
# records into BENCH_fig7.json — the perf trajectory future PRs diff against.
#
# Usage: tools/run_bench.sh [build_dir] [output.json]
#   build_dir   directory with the bench_fig7_* binaries (default: build)
#   output.json destination (default: BENCH_fig7.json in the repo root)
#
# Knobs (environment):
#   ZV_BENCH_SCALE   workload multiplier (default 1; benches document their
#                    paper-scale values)
#   ZV_THREADS       worker count for the parallel paths; the fig7_1 scoring
#                    section additionally sweeps 1 vs 4 itself
#   ZV_BENCH_ONLY    space-separated list of harness names to run
#                    (default: "bench_fig7_1 bench_fig7_2 bench_fig7_3
#                    bench_fig7_4 bench_fig7_5 bench_serve bench_distance
#                    bench_roaring")
#   ZV_SIMD          distance-kernel tier for the dispatched paths
#                    (bench_distance times scalar and avx2 side by side
#                    regardless; see docs/architecture.md "Kernel layer")
#   ZV_CACHE_MB / ZV_MAX_INFLIGHT / ZV_MAX_QUEUE  serving-layer knobs
#                    (bench_serve; see src/server/query_service.h)
#   ZV_BENCH_STRICT  1 = exit nonzero when any case regresses >15% against
#                    the committed baseline (default: warn only)

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
OUT="${2:-$ROOT/BENCH_fig7.json}"
BENCHES="${ZV_BENCH_ONLY:-bench_fig7_1 bench_fig7_2 bench_fig7_3 bench_fig7_4 bench_fig7_5 bench_serve bench_distance bench_roaring}"

echo "== zv-lint preflight =="
# Perf numbers from a tree that violates the determinism invariants are
# not worth recording; gate before spending bench minutes.
if [[ ! -x "$BUILD_DIR/zv_lint" ]]; then
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target zv_lint > /dev/null
fi
"$BUILD_DIR/zv_lint" "$ROOT" --baseline "$ROOT/tools/zv_lint_baseline.txt"

LINES="$(mktemp)"
trap 'rm -f "$LINES"' EXIT

for bench in $BENCHES; do
  bin="$BUILD_DIR/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "skipping $bench (not built at $bin)" >&2
    continue
  fi
  echo "== running $bench =="
  ZV_BENCH_JSON="$LINES" "$bin"
done

# Regression gate: diff the fresh records against the committed baseline
# *before* overwriting it. A case >15% slower than the baseline is reported;
# under ZV_BENCH_STRICT=1 that fails the run. Sub-5ms cases are skipped
# (timer noise dominates), as is the whole check when the baseline was
# recorded at a different ZV_BENCH_SCALE (the numbers aren't comparable).
check_regressions() {
  local old="$1" new="$2"
  if [[ ! -f "$old" ]]; then
    echo "no baseline at $old — skipping regression check"
    return 0
  fi
  local old_scale
  old_scale="$(sed -n 's/.*"scale": "\([^"]*\)".*/\1/p' "$old" | head -1)"
  if [[ "${old_scale:-1}" != "${ZV_BENCH_SCALE:-1}" ]]; then
    echo "baseline scale ${old_scale:-?} != current ${ZV_BENCH_SCALE:-1} — skipping regression check"
    return 0
  fi
  awk '
    match($0, /"figure":"[^"]*"/) {
      fig = substr($0, RSTART + 10, RLENGTH - 11)
      if (!match($0, /"case":"[^"]*"/)) next
      c = substr($0, RSTART + 8, RLENGTH - 9)
      if (!match($0, /"ms":[0-9.]+/)) next
      ms = substr($0, RSTART + 5, RLENGTH - 5) + 0
      key = fig "/" c
      if (FILENAME == ARGV[1]) { base[key] = ms } else { fresh[key] = ms }
    }
    END {
      bad = 0
      for (k in fresh) {
        if (!(k in base) || base[k] < 5) continue
        if (fresh[k] > base[k] * 1.15) {
          printf "REGRESSION %-55s %9.1f ms -> %9.1f ms (+%.0f%%)\n",
                 k, base[k], fresh[k], (fresh[k] / base[k] - 1) * 100
          bad++
        }
      }
      exit bad > 0 ? 1 : 0
    }
  ' "$old" "$new"
}

if ! check_regressions "$OUT" "$LINES"; then
  if [[ "${ZV_BENCH_STRICT:-0}" == "1" ]]; then
    echo "ZV_BENCH_STRICT=1: perf regressed >15% vs $OUT — failing" >&2
    exit 1
  fi
  echo "warning: perf regressed >15% vs committed baseline (set ZV_BENCH_STRICT=1 to fail)" >&2
fi

# Trace-overhead gate: bench_serve's trace_overhead record asserts traced
# warm p50 <= untraced p50 * 1.05 + 0.05 ms (tracing is supposed to be a
# near-free observer). "pass":"no" warns; under ZV_BENCH_STRICT=1 it fails.
if grep '"case":"trace_overhead"' "$LINES" | grep -q '"pass":"no"'; then
  if [[ "${ZV_BENCH_STRICT:-0}" == "1" ]]; then
    echo "ZV_BENCH_STRICT=1: tracing overhead exceeded budget (see trace_overhead record) — failing" >&2
    exit 1
  fi
  echo "warning: tracing overhead exceeded budget (set ZV_BENCH_STRICT=1 to fail)" >&2
fi

# Kernel-layer floors: bench_distance's simd_speedup_n512 record asserts
# vectorized L2 >= 2x over scalar (AVX2 hosts only — absent otherwise),
# and bench_roaring's gallop_speedup asserts galloping intersection >= 2x
# over the linear walk on skewed inputs. "pass":"no" warns; under
# ZV_BENCH_STRICT=1 it fails, like the trace-overhead budget above.
for floor in simd_speedup_n512 gallop_speedup; do
  if grep "\"case\":\"$floor\"" "$LINES" | grep -q '"pass":"no"'; then
    if [[ "${ZV_BENCH_STRICT:-0}" == "1" ]]; then
      echo "ZV_BENCH_STRICT=1: $floor below its 2x floor (see the $floor record) — failing" >&2
      exit 1
    fi
    echo "warning: $floor below its 2x floor (set ZV_BENCH_STRICT=1 to fail)" >&2
  fi
done

# Wrap the JSON lines into one array, with run metadata up front.
{
  printf '{\n'
  printf '  "scale": "%s",\n' "${ZV_BENCH_SCALE:-1}"
  printf '  "threads": "%s",\n' "${ZV_THREADS:-default}"
  printf '  "records": [\n'
  sed -e 's/^/    /' -e '$!s/$/,/' "$LINES"
  printf '  ]\n'
  printf '}\n'
} > "$OUT"

echo "wrote $(grep -c '"figure"' "$OUT") records to $OUT"
