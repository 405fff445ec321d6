/// \file zv_lint.h
/// \brief Project-invariant static analysis ("zv-lint") over src/.
///
/// The determinism contract — results byte-identical across ZV_THREADS,
/// chunk sizes, batching, backends, and schedules — is enforced dynamically
/// by the identity suites, but a dynamic test only catches the paths it
/// happens to exercise. zv-lint closes the gap statically: it flags the
/// *sources* of nondeterminism and layering rot at the offending line, so
/// a raw clock read or an upward #include cannot merge in the first place.
///
/// The analysis is deliberately libclang-free: a comment/string-aware
/// line scanner plus an include-graph builder, linting these invariants:
///
///   raw-clock       steady_clock::now(), a using/typedef alias of
///                   steady_clock, or system_clock outside
///                   common/clock.{h,cc} — route through SteadyNow(),
///                   MsSince(), MsBetween(), or Clock.
///   raw-rand        rand()/srand()/std::random_device outside
///                   common/rng.h — use the deterministic zv::Rng.
///   unordered-iter  iteration over std::unordered_{map,set,...} without a
///                   `// zv-lint: order-independent` annotation; hash
///                   order is not part of the determinism contract.
///   raw-simd        vector intrinsics outside tasks/simd.{h,cc}.
///   raw-thread      std::thread/std::jthread/std::async outside the
///                   files that may start threads: common/parallel,
///                   zql/scheduler and server/query_service
///                   (std::this_thread is fine).
///   manual-lock     bare .lock()/.unlock() calls — use a scoped guard
///                   (std::lock_guard, std::unique_lock, zv::ScopedUnlock)
///                   or annotate `// zv-lint: manual-lock`.
///   layering        an #include edge not in the layer DAG
///                   api → server → zql → {engine, tasks} →
///                   {sql, storage, roaring, algebra, viz} → common.
///   include-cycle   a cycle in the file-level include graph.
///
/// Suppression: a `// zv-lint: <tag>` comment on the offending line or on
/// the line directly above it. The tag is the rule id, except
/// unordered-iter which takes the semantic tag `order-independent`.
/// Accepted legacy sites live in a committed baseline (tools/
/// zv_lint_baseline.txt); baselined violations pass, anything new fails —
/// the gate is a ratchet, not a snapshot.

#ifndef ZV_TOOLS_ZV_LINT_H_
#define ZV_TOOLS_ZV_LINT_H_

#include <string>
#include <vector>

namespace zv::lint {

/// One input file, path repo-relative with forward slashes
/// (e.g. "src/zql/executor.cc").
struct SourceFile {
  std::string path;
  std::string content;
};

/// One finding. `key` is the baseline identity: rule + file + the
/// whitespace-normalized code of the offending line — stable across
/// unrelated edits that shift line numbers.
struct Violation {
  std::string rule;
  std::string file;
  int line = 0;  // 1-based
  std::string detail;
  std::string key;
};

/// A source line split into channels: `code` has comments and
/// string/char literal bodies blanked (delimiters kept), `comment` has
/// only comment text. Suppressions are read from `comment`, rules from
/// `code` — a rule name inside a string can never fire and a violation
/// inside a comment never counts.
struct ScannedLine {
  std::string code;
  std::string comment;
};

/// Splits a whole file; handles //, /*...*/ (multi-line), "..." with
/// escapes, '...', and R"delim(...)delim" raw strings.
std::vector<ScannedLine> ScanSource(const std::string& content);

/// Registered rule ids + one-line summaries (docs gate reads this table).
struct RuleInfo {
  const char* id;
  const char* summary;
};
const std::vector<RuleInfo>& Rules();

/// Layer rank lookup for a top-level directory under src/ ("zql", ...).
/// Returns false for directories not in the layer table.
bool KnownLayer(const std::string& dir);

/// True when a file in layer `from` may include a file in layer `to`.
bool LayerEdgeAllowed(const std::string& from, const std::string& to);

/// Per-file rules (raw-clock, raw-rand, raw-simd, raw-thread,
/// unordered-iter, manual-lock).
/// `headers` may carry companion files (e.g. the matching .h of a .cc)
/// whose unordered-container declarations are visible to `f`.
std::vector<Violation> LintFile(const SourceFile& f,
                                const std::vector<SourceFile>& headers = {});

/// Whole-graph rules (layering, include-cycle) over every file at once.
std::vector<Violation> LintIncludeGraph(const std::vector<SourceFile>& files);

/// All rules over all files, companion headers resolved automatically;
/// results sorted by (file, line, rule).
std::vector<Violation> LintAll(const std::vector<SourceFile>& files);

/// Baseline = multiset of accepted violation keys (one line per key; '#'
/// comments and blank lines ignored).
struct Baseline {
  std::vector<std::string> keys;
};
Baseline ParseBaseline(const std::string& text);

/// Serializes violations into baseline format (sorted, deduplicated
/// keys with a header comment) — what --write-baseline emits.
std::string FormatBaseline(const std::vector<Violation>& violations);

/// Drops violations whose key appears in the baseline (each baseline
/// entry absolves any number of textually identical sites in its file).
/// Baseline keys that matched nothing are appended to *stale when given —
/// the ratchet's "this debt was paid, delete the entry" signal.
std::vector<Violation> ApplyBaseline(const std::vector<Violation>& violations,
                                     const Baseline& baseline,
                                     std::vector<std::string>* stale);

}  // namespace zv::lint

#endif  // ZV_TOOLS_ZV_LINT_H_
