#!/usr/bin/env bash
# Docs drift gate (run by ctest): every primitive, mechanism, distance
# metric, and chart type the code registers must be mentioned in
# docs/zql_reference.md, every field of the wire protocol's
# request/response structs must be mentioned in docs/api_reference.md,
# README's knob table must list exactly the ZV_* environment variables
# still read, every backticked `Class::member` the docs name must still
# exist in src/, and the blocked-scan layout constants docs/architecture.md
# quotes must match select_runner.cc. The lists are extracted from the
# sources, not hardcoded, so adding e.g. a new metric, protocol field or env
# knob without documenting it — or retiring a knob, renaming a method or
# retuning a constant without updating the prose that names it — fails CI.
#
# Usage: tools/check_docs.sh [repo_root]

set -u

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
DOC="$ROOT/docs/zql_reference.md"
API_DOC="$ROOT/docs/api_reference.md"

fail=0
missing() {
  echo "check_docs: '$1' ($2) is not documented in docs/zql_reference.md" >&2
  fail=1
}

if [[ ! -f "$DOC" ]]; then
  echo "check_docs: missing $DOC" >&2
  exit 1
fi
if [[ ! -f "$API_DOC" ]]; then
  echo "check_docs: missing $API_DOC" >&2
  exit 1
fi

# Functional primitives the ZQL engine dispatches (T, D — the ScoreOp
# layer) and the parser's representative call (R).
exec_prims="$(grep -oE 'e\.func == "[A-Z]+"' "$ROOT/src/zql/operators.cc" |
                grep -oE '"[A-Z]+"' | tr -d '"' | sort -u)"
[[ -n "$exec_prims" ]] || {
  echo "check_docs: no primitives extracted from operators.cc" >&2; exit 1; }
prims="$exec_prims
R"
for p in $prims; do
  # Match the primitive as a call, e.g. `T(f1)` / `D(f1, f2)` / `R(3, ...`.
  grep -qE "\\b$p\\(" "$DOC" || missing "$p" "functional primitive"
done

# Mechanisms from the Process-cell parser.
mechs="$(grep -oE 'StartsWith\(rhs, "arg[a-z]+"\)' "$ROOT/src/zql/parser.cc" |
           grep -oE 'arg[a-z]+' | sort -u)"
[[ -n "$mechs" ]] || { echo "check_docs: no mechanisms extracted" >&2; exit 1; }
for m in $mechs; do
  grep -q "$m" "$DOC" || missing "$m" "mechanism"
done

# Distance metric spellings accepted by DistanceMetricFromString.
metrics="$(sed -n '/DistanceMetricFromString/,/^}/p' \
             "$ROOT/src/tasks/distance.cc" |
           grep -oE 'lower == "[a-z0-9]+"' | grep -oE '"[a-z0-9]+"' |
           tr -d '"' | sort -u)"
[[ -n "$metrics" ]] || { echo "check_docs: no metrics extracted" >&2; exit 1; }
for m in $metrics; do
  grep -qE "\\b$m\\b" "$DOC" || missing "$m" "distance metric"
done

# Chart type spellings accepted by ChartTypeFromString.
charts="$(sed -n '/ChartTypeFromString/,/^}/p' "$ROOT/src/viz/viz_spec.cc" |
          grep -oE 'lower == "[a-z]+"' | grep -oE '"[a-z]+"' |
          tr -d '"' | sort -u)"
[[ -n "$charts" ]] || { echo "check_docs: no chart types extracted" >&2; exit 1; }
for c in $charts; do
  grep -qE "\\b$c\\b" "$DOC" || missing "$c" "chart type"
done

# Wire protocol fields: every member of every struct defined in
# src/api/protocol.h (they are all wire messages) must appear as a word in
# docs/api_reference.md. The struct list is NOT hardcoded — a new message
# type added to the header is covered automatically.
proto_fields="$(awk '
  /^struct [A-Za-z_][A-Za-z0-9_]* \{/ {
    in_struct = 1; next
  }
  in_struct && /^\};/ { in_struct = 0; next }
  in_struct {
    # A member line ends in ";" (optionally followed by a trailing ///<
    # comment) and is not itself a comment line or a method declaration.
    if ($0 ~ /;[[:space:]]*(\/\/.*)?$/ && $0 !~ /^[[:space:]]*\/\// &&
        $0 !~ /\(/) {
      line = $0
      sub(/[[:space:]]*=[^;]*;.*/, "", line)  # strip initializer
      sub(/;.*/, "", line)                     # strip bare semicolon
      n = split(line, parts, /[[:space:]]+/)
      if (n > 0 && parts[n] ~ /^[A-Za-z_][A-Za-z0-9_]*$/) print parts[n]
    }
  }' "$ROOT/src/api/protocol.h" | sort -u)"
[[ -n "$proto_fields" ]] || {
  echo "check_docs: no protocol fields extracted from src/api/protocol.h" >&2
  exit 1
}
for f in $proto_fields; do
  if ! grep -qE "\\b$f\\b" "$API_DOC"; then
    echo "check_docs: protocol field '$f' is not documented in" \
         "docs/api_reference.md" >&2
    fail=1
  fi
done

# Wire stats fields: ZqlStats travels on the wire through EncodeStats, whose
# keys are Set() literals rather than protocol.h struct members — extract
# them too, so adding a stats field (e.g. a new per-stage timing) without
# documenting it fails the same way.
stats_fields="$(sed -n '/^Json EncodeStats/,/^}/p' "$ROOT/src/api/protocol.cc" |
                grep -oE 'Set\("[a-z_]+"' | grep -oE '"[a-z_]+"' |
                tr -d '"' | sort -u)"
[[ -n "$stats_fields" ]] || {
  echo "check_docs: no stats fields extracted from EncodeStats" >&2
  exit 1
}
for f in $stats_fields; do
  if ! grep -qE "\\b$f\\b" "$API_DOC"; then
    echo "check_docs: wire stats field '$f' is not documented in" \
         "docs/api_reference.md" >&2
    fail=1
  fi
done

# zv-lint rule ids: the Rules() registry in tools/zv_lint.cc is the
# source of truth; every rule id must appear (as `rule-id`, in backticks)
# in docs/architecture.md so the Static analysis section cannot drift.
ARCH_DOC="$ROOT/docs/architecture.md"
lint_rules="$(sed -n '/std::vector<RuleInfo>& Rules()/,/^}/p' \
                "$ROOT/tools/zv_lint.cc" |
              grep -oE '\{"[a-z-]+"' | grep -oE '[a-z-]+' | sort -u)"
[[ -n "$lint_rules" ]] || {
  echo "check_docs: no lint rules extracted from tools/zv_lint.cc" >&2
  exit 1
}
for r in $lint_rules; do
  if ! grep -qE "\`$r\`" "$ARCH_DOC"; then
    echo "check_docs: zv-lint rule '$r' is not documented in" \
         "docs/architecture.md" >&2
    fail=1
  fi
done

# Kernel variants: simd::LevelName in src/tasks/simd.cc is the canonical
# spelling of each dispatch tier (what EXPLAIN, simd_width docs, and bench
# records use); every variant must appear in backticks in the Kernel layer
# section of docs/architecture.md.
kernel_variants="$(sed -n '/const char\* LevelName/,/^}/p' \
                     "$ROOT/src/tasks/simd.cc" |
                   grep -oE 'return "[a-z0-9]+"' | grep -oE '"[a-z0-9]+"' |
                   tr -d '"' | sort -u)"
[[ -n "$kernel_variants" ]] || {
  echo "check_docs: no kernel variants extracted from src/tasks/simd.cc" >&2
  exit 1
}
for k in $kernel_variants; do
  if ! grep -qE "\`$k\`" "$ARCH_DOC"; then
    echo "check_docs: kernel variant '$k' is not documented in" \
         "docs/architecture.md" >&2
    fail=1
  fi
done

# Roaring container types: ContainerTypeName in src/roaring/container.cc
# enumerates the adaptive representations; every type must appear in
# backticks in docs/architecture.md so the container state machine cannot
# gain an encoding silently.
container_types="$(sed -n '/const char\* ContainerTypeName/,/^}/p' \
                     "$ROOT/src/roaring/container.cc" |
                   grep -oE 'return "[a-z]+"' | grep -oE '"[a-z]+"' |
                   tr -d '"' | sort -u)"
[[ -n "$container_types" ]] || {
  echo "check_docs: no container types extracted from container.cc" >&2
  exit 1
}
for c in $container_types; do
  if ! grep -qE "\`$c\`" "$ARCH_DOC"; then
    echo "check_docs: container type '$c' is not documented in" \
         "docs/architecture.md" >&2
    fail=1
  fi
done

# Layout constants: the blocked scan's geometry and layout rule, as
# docs/architecture.md quotes them, must match the constants in
# src/engine/select_runner.cc — min(kMaxScanBlocks, max(1, rows /
# kScanBlockRows)) blocks, and the wide layout past 2^k groups
# (kWideLayoutGroups = 1u << k) or at `groups * kReplicaRowsPerGroup >=
# rows per block`. Each phrase must be quoted, and every quote must match.
RUNNER_SRC="$ROOT/src/engine/select_runner.cc"
layout_const() {
  sed -nE "s/^constexpr [a-z0-9_]+ $1 = ([^;]+);$/\1/p" "$RUNNER_SRC"
}
block_rows="$(layout_const kScanBlockRows)"
max_blocks="$(layout_const kMaxScanBlocks)"
wide_shift="$(layout_const kWideLayoutGroups |
              sed -nE 's/^1u? << ([0-9]+)$/\1/p')"
replica="$(layout_const kReplicaRowsPerGroup)"
for v in "$block_rows" "$max_blocks" "$wide_shift" "$replica"; do
  [[ "$v" =~ ^[0-9]+$ ]] || {
    echo "check_docs: layout constants not extracted from select_runner.cc" >&2
    exit 1
  }
done
flat_arch="$(tr -s ' \n' ' ' <"$ARCH_DOC")"
expect_quotes() {  # ERE of the phrase, the phrase the constants give
  local quotes
  quotes="$(grep -oE "$1" <<<"$flat_arch" | sort -u)"
  if [[ "$quotes" != "$2" ]]; then
    echo "check_docs: docs/architecture.md quotes '${quotes//$'\n'/"', '"}'" \
         "where select_runner.cc gives '$2'" >&2
    fail=1
  fi
}
expect_quotes 'min\([0-9]+, max\(1, rows / [0-9]+\)\)' \
              "min($max_blocks, max(1, rows / $block_rows))"
expect_quotes 'more than 2\^[0-9]+ groups or when' \
              "more than 2^$wide_shift groups or when"
expect_quotes 'groups \* [0-9]+' "groups * $replica"

# Knob drift: every ZV_* environment variable src/ reads (a "ZV_*" string
# literal — the getenv argument) needs a row in README.md's knob table, and
# every row must name a variable something still reads: a "ZV_*" literal in
# src/ or bench/, or a $ZV_* / ${ZV_*} expansion in a tools/ script.
README_DOC="$ROOT/README.md"
knob_rows="$(grep -oE '^\| `ZV_[A-Z0-9_]+`' "$README_DOC" |
             grep -oE 'ZV_[A-Z0-9_]+' | sort -u)"
src_knobs="$(grep -rhoE '"ZV_[A-Z0-9_]+"' "$ROOT/src" | tr -d '"' | sort -u)"
[[ -n "$knob_rows" && -n "$src_knobs" ]] || {
  echo "check_docs: no env knobs extracted from README.md or src/" >&2
  exit 1
}
read_knobs="$({ grep -rhoE '"ZV_[A-Z0-9_]+"' "$ROOT/src" "$ROOT/bench" |
                  tr -d '"'
                grep -hoE '\$\{?ZV_[A-Z0-9_]+' "$ROOT"/tools/*.sh | tr -d '${'
              } | sort -u)"
for k in $src_knobs; do
  if ! grep -qx "$k" <<<"$knob_rows"; then
    echo "check_docs: env knob '$k' (read in src/) has no row in" \
         "README.md's knob table" >&2
    fail=1
  fi
done
for k in $knob_rows; do
  if ! grep -qx "$k" <<<"$read_knobs"; then
    echo "check_docs: README.md knob row '$k' names a variable nothing in" \
         "src/, bench/ or tools/ reads" >&2
    fail=1
  fi
done

# Stale code names: every backticked `Class::member` (a capitalized class
# or struct name, `::`, then a member) in docs/*.md and README.md must
# still name code — some file under src/ must mention both the class and
# the member as words.
code_names="$(grep -ohE '`[A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*' \
                "$ROOT"/docs/*.md "$README_DOC" | tr -d '`' | sort -u)"
[[ -n "$code_names" ]] || {
  echo "check_docs: no Class::member names extracted from the docs" >&2
  exit 1
}
for name in $code_names; do
  cls="${name%%::*}"
  member="${name#*::}"
  if ! grep -rlwZ "$cls" "$ROOT/src" |
       xargs -0 -r grep -lw "$member" | grep -q .; then
    echo "check_docs: '$name' is named in the docs, but no file in src/" \
         "mentions both '$cls' and '$member'" >&2
    fail=1
  fi
done

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "check_docs: OK (primitives: $(echo $prims | tr '\n' ' ')| mechanisms:" \
     "$(echo $mechs | tr '\n' ' ')| metrics: $(echo $metrics | tr '\n' ' ')|" \
     "chart types: $(echo $charts | tr '\n' ' ')| protocol fields:" \
     "$(echo $proto_fields | tr '\n' ' ')| stats fields:" \
     "$(echo $stats_fields | tr '\n' ' ')| lint rules:" \
     "$(echo $lint_rules | tr '\n' ' ')| kernel variants:" \
     "$(echo $kernel_variants | tr '\n' ' ')| container types:" \
     "$(echo $container_types | tr '\n' ' ')| layout constants:" \
     "$max_blocks $block_rows 2^$wide_shift $replica | env knobs:" \
     "$(echo $knob_rows | tr '\n' ' ')| code names: $(wc -w <<<"$code_names"))"
