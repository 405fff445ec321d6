#include "tools/zv_lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace zv::lint {

namespace {

constexpr size_t npos = std::string::npos;

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsTagChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-';
}

/// Position of `ident` in `code` at or after `from` with identifier
/// boundaries on both sides; npos when absent.
size_t FindIdent(const std::string& code, const char* ident, size_t from = 0) {
  const size_t len = std::strlen(ident);
  size_t pos = code.find(ident, from);
  while (pos != npos) {
    const bool bound_left = pos == 0 || !IsIdentChar(code[pos - 1]);
    const bool bound_right =
        pos + len >= code.size() || !IsIdentChar(code[pos + len]);
    if (bound_left && bound_right) return pos;
    pos = code.find(ident, pos + 1);
  }
  return npos;
}

size_t SkipSpace(const std::string& s, size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

std::string ReadIdentAt(const std::string& s, size_t i) {
  size_t j = i;
  while (j < s.size() && IsIdentChar(s[j])) ++j;
  if (j == i || std::isdigit(static_cast<unsigned char>(s[i])) != 0) return "";
  return s.substr(i, j - i);
}

/// Trims and collapses interior whitespace runs — the line-content
/// normalization baseline keys use, so reformatting alone does not churn
/// the baseline.
std::string Squeeze(const std::string& s) {
  std::string out;
  bool in_space = true;  // swallow leading whitespace
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      in_space = true;
      continue;
    }
    if (in_space && !out.empty()) out.push_back(' ');
    in_space = false;
    out.push_back(c);
  }
  return out;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

// ---------------------------------------------------------------------------
// Layer DAG. Each top-level directory under src/ may include itself,
// `common`, and exactly the layers listed here — the table IS the
// architecture diagram in docs/architecture.md. Adding an edge means
// editing this table (and the diagram), which is the point: a new
// cross-layer dependency is a reviewed decision, not an accident.
// ---------------------------------------------------------------------------

const std::map<std::string, std::set<std::string>>& AllowedEdges() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"api", {"server", "zql", "viz", "common"}},
      {"server", {"zql", "engine", "tasks", "viz", "common"}},
      {"zql", {"engine", "tasks", "sql", "viz", "common"}},
      {"engine", {"sql", "storage", "roaring", "common"}},
      {"tasks", {"viz", "common"}},
      {"workload", {"storage", "common"}},
      {"study", {"common"}},
      {"algebra", {"viz", "storage", "common"}},
      {"viz", {"sql", "storage", "common"}},
      {"sql", {"common"}},
      {"storage", {"common"}},
      {"roaring", {"common"}},
      {"common", {}},
  };
  return kAllowed;
}

/// Layer of a repo-relative path, or "" when it is not under src/.
std::string LayerOf(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return "";
  const size_t slash = path.find('/', 4);
  if (slash == npos) return "";
  return path.substr(4, slash - 4);
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == npos ? std::string() : path.substr(0, slash);
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

const char* SuppressTag(const std::string& rule) {
  // unordered-iter takes a semantic tag: the author asserts the loop's
  // effect does not depend on hash order, not merely "silence the tool".
  return rule == "unordered-iter" ? "order-independent" : rule.c_str();
}

bool CommentHasTag(const std::string& comment, const std::string& tag) {
  size_t pos = comment.find("zv-lint:");
  if (pos == npos) return false;
  const std::string rest = comment.substr(pos + std::strlen("zv-lint:"));
  size_t at = rest.find(tag);
  while (at != npos) {
    const bool bound_left = at == 0 || !IsTagChar(rest[at - 1]);
    const bool bound_right =
        at + tag.size() >= rest.size() || !IsTagChar(rest[at + tag.size()]);
    if (bound_left && bound_right) return true;
    at = rest.find(tag, at + 1);
  }
  return false;
}

/// A suppression comment counts on the flagged line itself or anywhere in
/// the contiguous comment-only block directly above it (annotations are
/// usually full sentences and wrap).
bool Suppressed(const std::vector<ScannedLine>& lines, size_t idx,
                const std::string& rule) {
  const std::string tag = SuppressTag(rule);
  if (idx < lines.size() && CommentHasTag(lines[idx].comment, tag)) {
    return true;
  }
  for (size_t j = idx; j > 0; --j) {
    const ScannedLine& prev = lines[j - 1];
    if (!Squeeze(prev.code).empty()) break;   // a code line ends the block
    if (CommentHasTag(prev.comment, tag)) return true;
    if (Squeeze(prev.comment).empty()) break;  // a blank line ends the block
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-line pattern checks
// ---------------------------------------------------------------------------

/// `steady_clock :: now` with arbitrary interior whitespace. Mentions of
/// steady_clock alone (time_point members, template parameters) are fine;
/// only the clock *read* is reserved to common/clock.h.
bool HasSteadyClockNow(const std::string& code) {
  size_t pos = 0;
  while ((pos = FindIdent(code, "steady_clock", pos)) != npos) {
    size_t j = SkipSpace(code, pos + std::strlen("steady_clock"));
    if (code.compare(j, 2, "::") == 0) {
      j = SkipSpace(code, j + 2);
      if (ReadIdentAt(code, j) == "now") return true;
    }
    pos += std::strlen("steady_clock");
  }
  return false;
}

/// A `using`/`typedef` line naming steady_clock itself (`using Clock =
/// std::chrono::steady_clock;`): reads through the alias (`Clock::now()`)
/// would slip past HasSteadyClockNow, so the alias is the violation.
/// Aliases of member types (`steady_clock::time_point`) are fine.
bool HasSteadyClockAlias(const std::string& code) {
  if (FindIdent(code, "using") == npos && FindIdent(code, "typedef") == npos) {
    return false;
  }
  size_t pos = 0;
  while ((pos = FindIdent(code, "steady_clock", pos)) != npos) {
    pos += std::strlen("steady_clock");
    if (code.compare(SkipSpace(code, pos), 2, "::") != 0) return true;
  }
  return false;
}

/// `rand(` / `srand(` as a call (not a longer identifier), or any mention
/// of random_device.
bool HasRawRand(const std::string& code) {
  for (const char* fn : {"rand", "srand"}) {
    size_t pos = 0;
    while ((pos = FindIdent(code, fn, pos)) != npos) {
      const size_t j = SkipSpace(code, pos + std::strlen(fn));
      if (j < code.size() && code[j] == '(') return true;
      pos += std::strlen(fn);
    }
  }
  return FindIdent(code, "random_device") != npos;
}

/// Vector-intrinsic use: an immintrin.h include, an `_mm*`/`_mm256_*`/
/// `_mm512_*` intrinsic call, or an `__m64`/`__m128`/`__m256`/`__m512`
/// vector type. Intrinsics outside the sanctioned kernel layer bypass the
/// scalar-fallback and bit-exactness contracts tasks/simd.h enforces.
bool HasRawSimd(const std::string& code) {
  if (code.find("immintrin.h") != npos) return true;
  for (const char* prefix : {"_mm_", "_mm256_", "_mm512_", "__m64", "__m128",
                             "__m256", "__m512"}) {
    size_t pos = 0;
    const size_t len = std::strlen(prefix);
    while ((pos = code.find(prefix, pos)) != npos) {
      if (pos == 0 || !IsIdentChar(code[pos - 1])) return true;
      pos += len;
    }
  }
  return false;
}

/// `std::thread`, `std::jthread` or `std::async`, with any spacing around
/// the `::`. `std::this_thread` is a different identifier and never
/// matches.
bool HasRawThread(const std::string& code) {
  size_t pos = 0;
  while ((pos = FindIdent(code, "std", pos)) != npos) {
    pos += 3;
    const size_t j = SkipSpace(code, pos);
    if (code.compare(j, 2, "::") != 0) continue;
    const std::string name = ReadIdentAt(code, SkipSpace(code, j + 2));
    if (name == "thread" || name == "jthread" || name == "async") return true;
  }
  return false;
}

/// The files that may start threads: the common pool, the pipelined fetch
/// thread, and the serving layer's admission workers.
bool IsThreadHome(const std::string& path) {
  for (const char* home :
       {"common/parallel.h", "common/parallel.cc", "zql/scheduler.h",
        "zql/scheduler.cc", "server/query_service.h",
        "server/query_service.cc"}) {
    if (EndsWith(path, home)) return true;
  }
  return false;
}

/// A member call `.lock()` / `->unlock()` etc.
bool HasManualLock(const std::string& code) {
  for (const char* fn : {"lock", "unlock"}) {
    size_t pos = 0;
    while ((pos = FindIdent(code, fn, pos)) != npos) {
      // Member access immediately before?
      size_t b = pos;
      while (b > 0 &&
             std::isspace(static_cast<unsigned char>(code[b - 1])) != 0) {
        --b;
      }
      const bool member =
          (b >= 1 && code[b - 1] == '.') ||
          (b >= 2 && code[b - 2] == '-' && code[b - 1] == '>');
      if (member) {
        const size_t j = SkipSpace(code, pos + std::strlen(fn));
        if (j < code.size() && code[j] == '(') return true;
      }
      pos += std::strlen(fn);
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Unordered-container declaration collection
// ---------------------------------------------------------------------------

const char* const kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// Skips a balanced template-argument list starting at `<`; returns the
/// index just past the matching `>` (or npos when unbalanced).
size_t SkipTemplateArgs(const std::string& code, size_t i) {
  if (i >= code.size() || code[i] != '<') return i;
  int depth = 0;
  for (; i < code.size(); ++i) {
    if (code[i] == '<') ++depth;
    if (code[i] == '>' && --depth == 0) return i + 1;
  }
  return npos;
}

/// Names declared with an unordered container type: variables, members,
/// parameters, and (one level of) `using Alias = std::unordered_map<...>`
/// aliases, whose own declarations are scanned in a second pass.
std::set<std::string> CollectUnorderedNames(
    const std::vector<ScannedLine>& lines) {
  std::string code;
  for (const ScannedLine& l : lines) {
    code += l.code;
    code += '\n';
  }
  std::vector<std::string> types(std::begin(kUnorderedTypes),
                                 std::end(kUnorderedTypes));
  // `using A = std::unordered_map<...>;` registers A as a container type.
  size_t upos = 0;
  while ((upos = FindIdent(code, "using", upos)) != npos) {
    size_t j = SkipSpace(code, upos + 5);
    const std::string alias = ReadIdentAt(code, j);
    upos = j;
    if (alias.empty()) continue;
    j = SkipSpace(code, j + alias.size());
    if (j >= code.size() || code[j] != '=') continue;
    const size_t end = code.find(';', j);
    const std::string rhs =
        code.substr(j, end == npos ? npos : end - j);
    for (const char* t : kUnorderedTypes) {
      if (FindIdent(rhs, t) != npos) {
        types.push_back(alias);
        break;
      }
    }
  }

  std::set<std::string> names;
  for (const std::string& type : types) {
    size_t pos = 0;
    while ((pos = FindIdent(code, type.c_str(), pos)) != npos) {
      size_t j = SkipSpace(code, pos + type.size());
      pos = j;
      j = SkipTemplateArgs(code, j);
      if (j == npos) break;
      j = SkipSpace(code, j);
      // Reference/pointer declarators.
      while (j < code.size() && (code[j] == '&' || code[j] == '*')) {
        j = SkipSpace(code, j + 1);
      }
      const std::string name = ReadIdentAt(code, j);
      if (!name.empty() && name != "const") names.insert(name);
    }
  }
  return names;
}

/// The parenthesized header of a `for` whose keyword sits on line `idx`,
/// joined across continuation lines (bounded lookahead).
std::string ForHeader(const std::vector<ScannedLine>& lines, size_t idx,
                      size_t keyword_pos) {
  std::string header;
  int depth = 0;
  bool started = false;
  for (size_t l = idx; l < lines.size() && l < idx + 8; ++l) {
    const std::string& code = lines[l].code;
    size_t i = l == idx ? keyword_pos : 0;
    for (; i < code.size(); ++i) {
      if (code[i] == '(') {
        ++depth;
        started = true;
      } else if (code[i] == ')') {
        if (--depth == 0) return header;
      } else if (started) {
        header.push_back(code[i]);
      }
    }
    if (started) header.push_back(' ');
  }
  return header;
}

Violation MakeViolation(const std::string& rule, const std::string& file,
                        size_t line_idx, const std::string& code,
                        std::string detail) {
  Violation v;
  v.rule = rule;
  v.file = file;
  v.line = static_cast<int>(line_idx) + 1;
  v.detail = std::move(detail);
  v.key = rule + "|" + file + "|" + Squeeze(code);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::vector<ScannedLine> ScanSource(const std::string& content) {
  std::vector<ScannedLine> lines;
  lines.emplace_back();
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;
  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = content[i];
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kCode;
      lines.emplace_back();
      continue;
    }
    ScannedLine& line = lines.back();
    switch (st) {
      case St::kCode:
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          st = St::kLineComment;
          ++i;
        } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          st = St::kBlockComment;
          ++i;
        } else if (c == '"') {
          line.code.push_back('"');
          if (i > 0 && content[i - 1] == 'R') {
            raw_delim.clear();
            size_t j = i + 1;
            while (j < n && content[j] != '(' && content[j] != '\n') {
              raw_delim.push_back(content[j++]);
            }
            i = j;  // at the opening '('
            st = St::kRaw;
          } else {
            st = St::kString;
          }
        } else if (c == '\'') {
          line.code.push_back('\'');
          st = St::kChar;
        } else {
          line.code.push_back(c);
        }
        break;
      case St::kLineComment:
        line.comment.push_back(c);
        break;
      case St::kBlockComment:
        if (c == '*' && i + 1 < n && content[i + 1] == '/') {
          st = St::kCode;
          ++i;
        } else {
          line.comment.push_back(c);
        }
        break;
      case St::kString:
      case St::kChar: {
        const char quote = st == St::kString ? '"' : '\'';
        if (c == '\\' && i + 1 < n) {
          ++i;
          line.code.push_back(' ');
        } else if (c == quote) {
          line.code.push_back(quote);
          st = St::kCode;
        } else {
          line.code.push_back(' ');
        }
        break;
      }
      case St::kRaw:
        if (c == ')' &&
            content.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < n &&
            content[i + 1 + raw_delim.size()] == '"') {
          i += raw_delim.size() + 1;  // lands on the closing quote
          line.code.push_back('"');
          st = St::kCode;
        } else {
          line.code.push_back(' ');
        }
        break;
    }
  }
  return lines;
}

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"raw-clock",
       "steady_clock::now(), a steady_clock alias, or system_clock outside "
       "common/clock.{h,cc}"},
      {"raw-rand", "rand()/srand()/std::random_device outside common/rng.h"},
      {"unordered-iter",
       "unordered-container iteration without an order-independent "
       "annotation"},
      {"manual-lock", "bare .lock()/.unlock() instead of a scoped guard"},
      {"raw-simd",
       "vector intrinsics (immintrin.h, _mm*/__m*) outside tasks/simd.{h,cc}"},
      {"raw-thread",
       "std::thread/std::jthread/std::async outside common/parallel, "
       "zql/scheduler and server/query_service"},
      {"layering", "#include edge not in the layer DAG"},
      {"include-cycle", "cycle in the file-level include graph"},
  };
  return kRules;
}

bool KnownLayer(const std::string& dir) {
  return AllowedEdges().count(dir) > 0;
}

bool LayerEdgeAllowed(const std::string& from, const std::string& to) {
  if (from == to) return true;
  const auto it = AllowedEdges().find(from);
  return it != AllowedEdges().end() && it->second.count(to) > 0;
}

std::vector<Violation> LintFile(const SourceFile& f,
                                const std::vector<SourceFile>& headers) {
  const std::vector<ScannedLine> lines = ScanSource(f.content);
  const bool clock_home = EndsWith(f.path, "common/clock.h") ||
                          EndsWith(f.path, "common/clock.cc");
  const bool rng_home = EndsWith(f.path, "common/rng.h");
  const bool simd_home = EndsWith(f.path, "tasks/simd.h") ||
                         EndsWith(f.path, "tasks/simd.cc");
  const bool thread_home = IsThreadHome(f.path);

  // Container names declared here or in companion headers (a .cc iterating
  // a member its own header declares is the common case).
  std::set<std::string> unordered = CollectUnorderedNames(lines);
  for (const SourceFile& h : headers) {
    const std::set<std::string> more =
        CollectUnorderedNames(ScanSource(h.content));
    unordered.insert(more.begin(), more.end());
  }

  std::vector<Violation> out;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (code.empty()) continue;

    if (!clock_home &&
        (HasSteadyClockNow(code) || HasSteadyClockAlias(code) ||
         FindIdent(code, "system_clock") != npos) &&
        !Suppressed(lines, i, "raw-clock")) {
      out.push_back(MakeViolation(
          "raw-clock", f.path, i, code,
          "raw clock read; use zv::SteadyNow()/MsSince()/Clock "
          "(common/clock.h) so time is injectable and consolidated"));
    }

    if (!rng_home && HasRawRand(code) && !Suppressed(lines, i, "raw-rand")) {
      out.push_back(MakeViolation(
          "raw-rand", f.path, i, code,
          "nondeterministic RNG; use the seeded zv::Rng (common/rng.h)"));
    }

    if (!simd_home && HasRawSimd(code) && !Suppressed(lines, i, "raw-simd")) {
      out.push_back(MakeViolation(
          "raw-simd", f.path, i, code,
          "raw vector intrinsics; the only sanctioned home is the "
          "tasks/simd.h kernel layer, which pairs every vector path with a "
          "bit-identical scalar fallback and runtime dispatch"));
    }

    if (!thread_home && HasRawThread(code) &&
        !Suppressed(lines, i, "raw-thread")) {
      out.push_back(MakeViolation(
          "raw-thread", f.path, i, code,
          "raw thread; run the work on the common pool (ParallelFor, "
          "common/parallel.h) — the only thread owners are that pool, the "
          "pipelined fetch thread and the serving layer's admission "
          "workers"));
    }

    if (HasManualLock(code) && !Suppressed(lines, i, "manual-lock")) {
      out.push_back(MakeViolation(
          "manual-lock", f.path, i, code,
          "bare lock()/unlock(); use std::lock_guard/std::unique_lock/"
          "zv::ScopedUnlock or annotate `// zv-lint: manual-lock`"));
    }

    if (!unordered.empty()) {
      size_t pos = 0;
      while ((pos = FindIdent(code, "for", pos)) != npos) {
        const std::string header = ForHeader(lines, i, pos);
        pos += 3;
        for (const std::string& name : unordered) {
          if (FindIdent(header, name.c_str()) == npos) continue;
          if (!Suppressed(lines, i, "unordered-iter")) {
            out.push_back(MakeViolation(
                "unordered-iter", f.path, i, code,
                "iterates unordered container `" + name +
                    "`; hash order is not deterministic — annotate "
                    "`// zv-lint: order-independent` if the loop's effect "
                    "is order-free"));
          }
          break;
        }
      }
    }
  }
  return out;
}

std::vector<Violation> LintIncludeGraph(const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  std::set<std::string> known;
  for (const SourceFile& f : files) known.insert(f.path);

  // file -> included files present in the set (sorted for determinism).
  std::map<std::string, std::vector<std::string>> graph;
  for (const SourceFile& f : files) {
    const std::string layer = LayerOf(f.path);
    std::vector<std::string>& edges = graph[f.path];
    // Include paths are read from the raw content (the path text lives
    // inside the string literal the channel scanner blanks out), but only
    // on lines whose *code* channel carries the directive — a commented-
    // out include is not an edge.
    const std::vector<ScannedLine> lines = ScanSource(f.content);
    std::istringstream stream(f.content);
    std::string raw;
    int lineno = 0;
    while (std::getline(stream, raw)) {
      ++lineno;
      const size_t idx = static_cast<size_t>(lineno) - 1;
      if (idx >= lines.size() || lines[idx].code.find('#') == npos) continue;
      size_t pos = raw.find_first_not_of(" \t");
      if (pos == npos || raw[pos] != '#') continue;
      pos = raw.find_first_not_of(" \t", pos + 1);
      if (pos == npos || raw.compare(pos, 7, "include") != 0) continue;
      pos = raw.find('"', pos + 7);
      if (pos == npos) continue;
      const size_t end = raw.find('"', pos + 1);
      if (end == npos) continue;
      const std::string inc = raw.substr(pos + 1, end - pos - 1);

      // Resolve: project includes are rooted at src/ ("common/clock.h");
      // a slashless include refers to the includer's own directory.
      std::string target;
      if (inc.find('/') == npos) {
        target = DirOf(f.path) + "/" + inc;
      } else {
        target = "src/" + inc;
      }
      if (known.count(target) > 0) edges.push_back(target);

      const std::string to_layer = LayerOf(target);
      if (layer.empty() || to_layer.empty()) continue;
      if (!KnownLayer(layer)) {
        out.push_back(MakeViolation(
            "layering", f.path, static_cast<size_t>(lineno) - 1, raw,
            "directory src/" + layer +
                " is not in the layer table (tools/zv_lint.cc "
                "AllowedEdges); place the new layer in the DAG first"));
        continue;
      }
      if (!LayerEdgeAllowed(layer, to_layer)) {
        out.push_back(MakeViolation(
            "layering", f.path, static_cast<size_t>(lineno) - 1, raw,
            "include edge " + layer + " -> " + to_layer +
                " violates the layer DAG api -> server -> zql -> "
                "{engine, tasks} -> {sql, storage, roaring, algebra, viz} "
                "-> common"));
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }

  // Cycle detection: DFS with colors; report the first back edge's cycle
  // (the stack segment from the revisited node — a minimal cycle in the
  // sense that every hop is a real include edge).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::vector<std::string> cycle;
  std::function<bool(const std::string&)> dfs =
      [&](const std::string& node) -> bool {
    color[node] = 1;
    stack.push_back(node);
    for (const std::string& next : graph[node]) {
      if (color[next] == 1) {
        const auto at = std::find(stack.begin(), stack.end(), next);
        cycle.assign(at, stack.end());
        cycle.push_back(next);
        return true;
      }
      if (color[next] == 0 && dfs(next)) return true;
    }
    stack.pop_back();
    color[node] = 2;
    return false;
  };
  for (const auto& [node, edges] : graph) {
    (void)edges;
    if (color[node] == 0 && dfs(node)) break;
  }
  if (!cycle.empty()) {
    std::string path;
    for (size_t i = 0; i < cycle.size(); ++i) {
      if (i > 0) path += " -> ";
      path += cycle[i];
    }
    Violation v;
    v.rule = "include-cycle";
    v.file = cycle.front();
    v.line = 1;
    v.detail = "include cycle: " + path;
    v.key = "include-cycle|" + cycle.front() + "|" + path;
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<Violation> LintAll(const std::vector<SourceFile>& files) {
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : files) by_path[f.path] = &f;

  std::vector<Violation> out;
  for (const SourceFile& f : files) {
    std::vector<SourceFile> headers;
    if (EndsWith(f.path, ".cc")) {
      const std::string companion =
          f.path.substr(0, f.path.size() - 3) + ".h";
      const auto it = by_path.find(companion);
      if (it != by_path.end()) headers.push_back(*it->second);
    }
    std::vector<Violation> vs = LintFile(f, headers);
    out.insert(out.end(), std::make_move_iterator(vs.begin()),
               std::make_move_iterator(vs.end()));
  }
  std::vector<Violation> graph = LintIncludeGraph(files);
  out.insert(out.end(), std::make_move_iterator(graph.begin()),
             std::make_move_iterator(graph.end()));

  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

Baseline ParseBaseline(const std::string& text) {
  Baseline b;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    // Trim trailing CR/whitespace.
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back())) != 0) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    b.keys.push_back(line);
  }
  return b;
}

std::string FormatBaseline(const std::vector<Violation>& violations) {
  std::set<std::string> keys;
  for (const Violation& v : violations) keys.insert(v.key);
  std::string out =
      "# zv-lint baseline: accepted pre-existing violations (the ratchet).\n"
      "# Each line is `rule|file|normalized source line`. Regenerate with\n"
      "#   zv_lint <repo_root> --write-baseline tools/zv_lint_baseline.txt\n"
      "# Entries may only be DELETED (debt paid) — never add new ones;\n"
      "# fix or annotate the new site instead.\n";
  for (const std::string& k : keys) {
    out += k;
    out += '\n';
  }
  return out;
}

std::vector<Violation> ApplyBaseline(const std::vector<Violation>& violations,
                                     const Baseline& baseline,
                                     std::vector<std::string>* stale) {
  std::set<std::string> accepted(baseline.keys.begin(), baseline.keys.end());
  std::set<std::string> used;
  std::vector<Violation> out;
  for (const Violation& v : violations) {
    if (accepted.count(v.key) > 0) {
      used.insert(v.key);
    } else {
      out.push_back(v);
    }
  }
  if (stale != nullptr) {
    for (const std::string& k : accepted) {
      if (used.count(k) == 0) stale->push_back(k);
    }
  }
  return out;
}

}  // namespace zv::lint
