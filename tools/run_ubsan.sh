#!/usr/bin/env bash
# Undefined-behavior gate: builds a UBSan tree (-DZV_UBSAN=ON, i.e.
# -fsanitize=undefined -fno-sanitize-recover=all, so the first report
# aborts the test instead of scrolling past) and runs the FULL default
# suite under it — UB is not confined to the wire-facing layers the
# ASan gate concentrates on: a misaligned load in the roaring bitmap,
# a signed overflow in a scoring loop, or an invalid enum cast in the
# parser are all silent until the optimizer acts on them.
#
# After the suites, the "stress" configuration runs the randomized
# multi-session soak (batch_stress) under the same instrumented build.
#
# Usage: tools/run_ubsan.sh [source_root] [build_dir]
#   source_root  repo root (default: parent of this script)
#   build_dir    UBSan build tree (default: <source_root>/build-ubsan)
#
# Registered in ctest under the "ubsan" label with CONFIGURATIONS ubsan,
# so plain `ctest` skips it; run `ctest -C ubsan` — or this script.

set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD="${2:-$ROOT/build-ubsan}"

echo "== configuring UBSan tree at $BUILD =="
cmake -B "$BUILD" -S "$ROOT" -DZV_UBSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  > /dev/null

echo "== building =="
cmake --build "$BUILD" -j "$(nproc)" > /dev/null

echo "== zv-lint preflight =="
"$BUILD/zv_lint" "$ROOT" --baseline "$ROOT/tools/zv_lint_baseline.txt"

echo "== running the full suite under UndefinedBehaviorSanitizer =="
# print_stacktrace makes the one-line report actionable;
# halt_on_error pairs with -fno-sanitize-recover=all for belt and braces.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1 halt_on_error=1}"
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")

echo "== running the randomized soak (stress configuration) =="
(cd "$BUILD" && ctest --output-on-failure -C stress -L stress)

echo "UBSan gate passed: no undefined behavior reported in the full suite + batch_stress"
