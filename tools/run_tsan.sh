#!/usr/bin/env bash
# Race gate for the concurrent layers: builds a ThreadSanitizer tree
# (-DZV_TSAN=ON) and runs the concurrency-sensitive suites under it —
#   parallel_test  (thread pool, deterministic ParallelFor, cancellation;
#                   eight concurrent callers over the pool's job list with
#                   nested calls, seeded errors and a cancelled caller)
#   topk_test      (SharedTopK's relaxed atomic bound)
#   server_test    (sessions, the result cache, async execution, admission
#                   control)
#   pipeline_test  (plan execution byte-identity with chunk passes and
#                   scoring on the pool, mid-flush cancellation)
#   shard_test     (chunk-parallel passes on the backend's own queue: the
#                   pass's leader and the pool's workers, mid-pass
#                   cancellation)
#   batch_test     (cross-query shared scans: group commit by leader
#                   election, fused passes on the common pool, cancelled
#                   leaders and followers, eight direct callers sharing
#                   one backend's queue)
#   zql_roundtrip_test (canonical serialization / fingerprint property
#                   suite — serial, but cheap enough to keep in the gate)
#   trace_test     (traces handed from submitting threads to serving
#                   workers; trace mutex)
#   metrics_test   (lock-free histogram recording hammered from many
#                   threads; registry mutex)
#
# After the suites, the "stress" configuration runs the randomized
# multi-session soak (batch_stress) under the same instrumented build.
#
# Usage: tools/run_tsan.sh [source_root] [build_dir]
#   source_root  repo root (default: parent of this script)
#   build_dir    TSan build tree (default: <source_root>/build-tsan)
#
# Registered in ctest under the "tsan" label with CONFIGURATIONS tsan, so
# plain `ctest` skips it; run `ctest -C tsan` — or this script directly.

set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD="${2:-$ROOT/build-tsan}"
SUITES="parallel_test topk_test server_test pipeline_test shard_test \
batch_test zql_roundtrip_test trace_test metrics_test"

echo "== configuring TSan tree at $BUILD =="
cmake -B "$BUILD" -S "$ROOT" -DZV_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  > /dev/null

echo "== building $SUITES =="
# shellcheck disable=SC2086  # word-splitting the target list is the point
cmake --build "$BUILD" -j "$(nproc)" --target $SUITES zv_lint

echo "== zv-lint preflight =="
# A cheap static gate before the expensive instrumented run: a raw clock
# read or layering break fails here in seconds, not after the soak.
"$BUILD/zv_lint" "$ROOT" --baseline "$ROOT/tools/zv_lint_baseline.txt"

echo "== running under ThreadSanitizer =="
# halt_on_error surfaces the first race as a test failure instead of a log
# line; second_deadlock_stack improves lock-inversion reports.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
(cd "$BUILD" && ctest --output-on-failure \
  -R '^(parallel_test|topk_test|server_test|pipeline_test|shard_test|batch_test|zql_roundtrip_test|trace_test|metrics_test)$')

echo "== running the randomized soak (stress configuration) =="
(cd "$BUILD" && ctest --output-on-failure -C stress -L stress)

echo "TSan gate passed: no races reported in $SUITES + batch_stress"
