#!/usr/bin/env bash
# Memory gate for the wire-facing layers: builds an AddressSanitizer tree
# (-DZV_ASAN=ON) and runs the codec/api/server suites under it —
#   json_test         (the JSON parser: the code that touches raw,
#                      untrusted wire bytes)
#   api_test          (protocol encode/decode, end-to-end wire path)
#   zql_builder_test  (AST construction + canonical serialization)
#   server_test       (task lifecycle: shared QueryTask state, caches)
#   shard_test        (per-chunk row-id buffers moved or appended and
#                      freed out of chunk passes, released after each
#                      statement's aggregation; MultiChunkScanner lifetime)
#   batch_test        (per-statement row-id buffers fanning out of shared
#                      scan passes; MultiChunkScanner + snapshot lifetime
#                      across epoch bumps and abandoning members; the
#                      tests' ReferenceDatabase scanners)
#   zql_roundtrip_test (parser + canonical serializer over generated
#                      inputs — string-buffer heavy, cheap to keep)
#   engine_test       (batch predicate kernels indexing raw column arrays
#                      and candidate buffers; the randomized selection
#                      differential over unaligned batch-edge ranges)
#   param_roaring_test (Roaring containers and bitmap-filtered scans whose
#                      candidate batches feed the residual kernels)
#   parallel_test     (thread pool job buffers and chunked ParallelFor)
#   trace_test        (span-tree ownership across threads; Chrome/JSON
#                      trace exports; wire metrics payloads)
#   metrics_test      (registry-owned metric lifetimes, snapshot copies)
#
# After the suites, the "stress" configuration runs the randomized
# multi-session soak (batch_stress) under the same instrumented build.
#
# Usage: tools/run_asan.sh [source_root] [build_dir]
#   source_root  repo root (default: parent of this script)
#   build_dir    ASan build tree (default: <source_root>/build-asan)
#
# Registered in ctest under the "asan" label with CONFIGURATIONS asan, so
# plain `ctest` skips it; run `ctest -C asan` — or this script directly.

set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD="${2:-$ROOT/build-asan}"
SUITES="json_test api_test zql_builder_test server_test shard_test \
batch_test zql_roundtrip_test trace_test metrics_test engine_test \
param_roaring_test parallel_test"

echo "== configuring ASan tree at $BUILD =="
cmake -B "$BUILD" -S "$ROOT" -DZV_ASAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  > /dev/null

echo "== building $SUITES =="
# shellcheck disable=SC2086  # word-splitting the target list is the point
cmake --build "$BUILD" -j "$(nproc)" --target $SUITES zv_lint

echo "== zv-lint preflight =="
# A cheap static gate before the expensive instrumented run: a raw clock
# read or layering break fails here in seconds, not after the soak.
"$BUILD/zv_lint" "$ROOT" --baseline "$ROOT/tools/zv_lint_baseline.txt"

echo "== running under AddressSanitizer =="
# detect_leaks catches forgotten Json/AST nodes; abort_on_error turns the
# first report into a test failure instead of a log line.
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 abort_on_error=1}"
(cd "$BUILD" && ctest --output-on-failure \
  -R '^(json_test|api_test|zql_builder_test|server_test|shard_test|batch_test|zql_roundtrip_test|trace_test|metrics_test|engine_test|param_roaring_test|parallel_test)$')

echo "== running the randomized soak (stress configuration) =="
(cd "$BUILD" && ctest --output-on-failure -C stress -L stress)

echo "ASan gate passed: no memory errors reported in $SUITES + batch_stress"
