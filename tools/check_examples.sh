#!/usr/bin/env bash
# Determinism gate for the example CLIs: runs quickstart, similarity_search,
# outlier_explorer and discrepancy_explorer under three settings
#   ZV_THREADS=1
#   ZV_THREADS=8
#   ZV_THREADS=8 ZV_CHUNK_ROWS=4096
# and fails unless each example prints the same bytes under all three.
# Only timing values are masked: every "<number> ms", with the padding in
# front of it, becomes "<t> ms". Everything else is compared, including the
# SQL query and request counts printed next to the timings.
#
# Usage: tools/check_examples.sh <bin_dir> [<parent_bin_dir>]
#   bin_dir         directory holding the built examples
#   parent_bin_dir  optional: a build of the parent commit's examples. When
#                   given, each example's masked ZV_THREADS=1 output must
#                   also equal the parent build's, byte for byte.
#
# Registered in ctest as `examples_determinism` (one argument).

set -euo pipefail

BIN="${1:?usage: $0 <bin_dir> [<parent_bin_dir>]}"
PARENT="${2:-}"
EXAMPLES=(quickstart similarity_search outlier_explorer discrepancy_explorer)
SETTINGS=("ZV_THREADS=1" "ZV_THREADS=8" "ZV_THREADS=8 ZV_CHUNK_ROWS=4096")

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mask() { sed -E 's/ *[0-9]+(\.[0-9]+)? ?ms\b/ <t> ms/g'; }

status=0
for ex in "${EXAMPLES[@]}"; do
  for i in "${!SETTINGS[@]}"; do
    # The setting is a list of VAR=value words; word splitting is intended.
    # shellcheck disable=SC2086
    if ! env -u ZV_THREADS -u ZV_CHUNK_ROWS ${SETTINGS[$i]} "$BIN/$ex" \
         > "$tmp/$ex.$i.raw"; then
      echo "check_examples: $ex failed under ${SETTINGS[$i]}" >&2
      status=1
      continue 2
    fi
    mask < "$tmp/$ex.$i.raw" > "$tmp/$ex.$i"
  done
  for i in 1 2; do
    if ! diff -u "$tmp/$ex.0" "$tmp/$ex.$i" > "$tmp/diff"; then
      echo "check_examples: $ex under '${SETTINGS[$i]}' differs from" \
           "'${SETTINGS[0]}':" >&2
      head -n 40 "$tmp/diff" >&2
      status=1
    fi
  done
  if [[ -n "$PARENT" ]]; then
    if ! env -u ZV_THREADS -u ZV_CHUNK_ROWS ZV_THREADS=1 "$PARENT/$ex" \
         > "$tmp/$ex.parent.raw"; then
      echo "check_examples: parent $ex failed under ZV_THREADS=1" >&2
      status=1
      continue
    fi
    mask < "$tmp/$ex.parent.raw" > "$tmp/$ex.parent"
    if ! diff -u "$tmp/$ex.parent" "$tmp/$ex.0" > "$tmp/diff"; then
      echo "check_examples: $ex differs from the parent build's output:" >&2
      head -n 40 "$tmp/diff" >&2
      status=1
    fi
  fi
done

if [[ $status -eq 0 ]]; then
  echo "check_examples: OK (${EXAMPLES[*]} under ${#SETTINGS[@]} settings${PARENT:+, and equal to the parent build})"
fi
exit "$status"
