/// \file lint_test.cc
/// \brief In-memory fixtures for every zv-lint rule (tools/zv_lint.h):
/// each rule fires on a minimal offending snippet, each suppression
/// comment silences it, the channel scanner keeps rule text inside
/// strings/comments inert, the layer gate rejects an api -> engine edge
/// while accepting the sanctioned api -> zql edge, the cycle detector
/// reports the minimal include cycle, and the baseline behaves as a
/// ratchet — baselined sites pass, new sites fail, paid-off entries are
/// reported stale.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/zv_lint.h"

namespace zv::lint {
namespace {

SourceFile File(std::string path, std::string content) {
  return SourceFile{std::move(path), std::move(content)};
}

// ---------------------------------------------------------------------------
// Channel scanner
// ---------------------------------------------------------------------------

TEST(ScanSourceTest, SplitsCodeAndCommentChannels) {
  const auto lines = ScanSource("int x = 1;  // trailing note\n");
  ASSERT_EQ(lines.size(), 2u);  // content + the empty line after '\n'
  EXPECT_NE(lines[0].code.find("int x = 1;"), std::string::npos);
  EXPECT_EQ(lines[0].code.find("trailing"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("trailing note"), std::string::npos);
}

TEST(ScanSourceTest, BlanksStringAndCharLiteralBodies) {
  const auto lines =
      ScanSource("auto s = \"steady_clock::now()\"; char c = 'r';\n");
  EXPECT_EQ(lines[0].code.find("steady_clock"), std::string::npos);
  // Delimiters survive so the line still parses as shape.
  EXPECT_NE(lines[0].code.find('"'), std::string::npos);
}

TEST(ScanSourceTest, HandlesBlockCommentsAcrossLines) {
  const auto lines = ScanSource("a; /* rand();\n still rand(); */ b;\n");
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_EQ(lines[1].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[1].code.find("b;"), std::string::npos);
  EXPECT_NE(lines[0].comment.find("rand"), std::string::npos);
}

TEST(ScanSourceTest, HandlesRawStrings) {
  const auto lines =
      ScanSource("auto q = R\"zq(rand(); // not a comment)zq\"; c;\n");
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_TRUE(lines[0].comment.empty());
  EXPECT_NE(lines[0].code.find("c;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// raw-clock
// ---------------------------------------------------------------------------

TEST(RawClockTest, FlagsSteadyClockNow) {
  const auto vs = LintFile(
      File("src/zql/executor.cc",
           "void F() { auto t = std::chrono::steady_clock::now(); }\n"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "raw-clock");
  EXPECT_EQ(vs[0].line, 1);
}

TEST(RawClockTest, FlagsSystemClock) {
  const auto vs = LintFile(
      File("src/server/http.cc",
           "auto t = std::chrono::system_clock::now();\n"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "raw-clock");
}

TEST(RawClockTest, FlagsSteadyClockAlias) {
  // Reads through an alias (`Clock::now()`) never spell steady_clock::now,
  // so the alias itself fires — both spellings.
  const auto vs = LintFile(
      File("src/engine/database.cc",
           "using Clock = std::chrono::steady_clock;\n"
           "typedef std::chrono::steady_clock SteadyClock;\n"
           "auto t0 = Clock::now();\n"));
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "raw-clock");
  EXPECT_EQ(vs[0].line, 1);
  EXPECT_EQ(vs[1].rule, "raw-clock");
  EXPECT_EQ(vs[1].line, 2);
}

TEST(RawClockTest, MemberTypeAliasDoesNotFire) {
  const auto vs = LintFile(
      File("src/engine/shared_scan.cc",
           "using TimePoint = std::chrono::steady_clock::time_point;\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(RawClockTest, SuppressionSilencesAlias) {
  const auto vs = LintFile(
      File("src/engine/database.cc",
           "using Clock = std::chrono::steady_clock;  "
           "// zv-lint: raw-clock injected elsewhere\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(RawClockTest, ClockHomeIsExempt) {
  const auto vs = LintFile(
      File("src/common/clock.h",
           "inline auto SteadyNow() { return "
           "std::chrono::steady_clock::now(); }\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(RawClockTest, SuppressionOnLineSilences) {
  const auto vs = LintFile(
      File("src/zql/executor.cc",
           "auto t = std::chrono::steady_clock::now();  "
           "// zv-lint: raw-clock calibration probe\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(RawClockTest, SuppressionInCommentBlockAboveSilences) {
  const auto vs = LintFile(
      File("src/zql/executor.cc",
           "// This probe measures wall time on purpose.\n"
           "// zv-lint: raw-clock\n"
           "auto t = std::chrono::steady_clock::now();\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(RawClockTest, MentionInsideStringDoesNotFire) {
  const auto vs = LintFile(
      File("src/zql/executor.cc",
           "const char* doc = \"std::chrono::steady_clock::now()\";\n"));
  EXPECT_TRUE(vs.empty());
}

// ---------------------------------------------------------------------------
// raw-rand
// ---------------------------------------------------------------------------

TEST(RawRandTest, FlagsRandCallAndRandomDevice) {
  const auto vs = LintFile(
      File("src/engine/scoring.cc",
           "int a = rand();\n"
           "std::random_device rd;\n"));
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "raw-rand");
  EXPECT_EQ(vs[1].rule, "raw-rand");
}

TEST(RawRandTest, IdentifierContainingRandDoesNotFire) {
  const auto vs = LintFile(
      File("src/engine/scoring.cc",
           "int operand(int x);\n"
           "int y = my_rand(3);\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(RawRandTest, RngHomeIsExemptAndSuppressionWorks) {
  EXPECT_TRUE(
      LintFile(File("src/common/rng.h", "std::random_device rd;\n")).empty());
  EXPECT_TRUE(LintFile(File("src/engine/scoring.cc",
                            "// zv-lint: raw-rand seeding the seed\n"
                            "std::random_device rd;\n"))
                  .empty());
}

// ---------------------------------------------------------------------------
// raw-simd
// ---------------------------------------------------------------------------

TEST(RawSimdTest, FlagsIntrinsicsAndImmintrinInclude) {
  const auto vs = LintFile(
      File("src/engine/scoring.cc",
           "#include <immintrin.h>\n"
           "__m256d v = _mm256_setzero_pd();\n"));
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "raw-simd");
  EXPECT_EQ(vs[0].line, 1);
  EXPECT_EQ(vs[1].rule, "raw-simd");
  EXPECT_EQ(vs[1].line, 2);
}

TEST(RawSimdTest, PrefixInsideIdentifierDoesNotFire) {
  // `_mm` only counts at an identifier start; mentions inside longer
  // names or inside string literals are not intrinsic use.
  const auto vs = LintFile(
      File("src/engine/scoring.cc",
           "int warm_mm256_count = 0;\n"
           "const char* doc = \"_mm256_add_pd\";\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(RawSimdTest, SimdHomeIsExemptAndSuppressionWorks) {
  EXPECT_TRUE(LintFile(File("src/tasks/simd.cc",
                            "#include <immintrin.h>\n"
                            "__m256d v = _mm256_setzero_pd();\n"))
                  .empty());
  EXPECT_TRUE(LintFile(File("src/tasks/simd.h",
                            "__m256d Lanes(__m256d v);\n"))
                  .empty());
  EXPECT_TRUE(LintFile(File("src/engine/scoring.cc",
                            "// Prefetch hint only; no vector math here.\n"
                            "// zv-lint: raw-simd\n"
                            "_mm_prefetch(p, 1);\n"))
                  .empty());
}

// ---------------------------------------------------------------------------
// raw-thread
// ---------------------------------------------------------------------------

TEST(RawThreadTest, FlagsThreadJthreadAndAsyncInEngine) {
  const auto vs = LintFile(
      File("src/engine/shared_scan.cc",
           "std::thread coordinator_;\n"
           "std::vector<std :: jthread> workers_;\n"
           "auto f = std::async(std::launch::async, Scan);\n"));
  ASSERT_EQ(vs.size(), 3u);
  for (size_t i = 0; i < vs.size(); ++i) {
    EXPECT_EQ(vs[i].rule, "raw-thread");
    EXPECT_EQ(vs[i].line, static_cast<int>(i) + 1);
  }
}

TEST(RawThreadTest, ThisThreadAndMentionsInStringsDoNotFire) {
  const auto vs = LintFile(
      File("src/engine/database.cc",
           "std::this_thread::sleep_for(std::chrono::microseconds(20));\n"
           "const char* doc = \"std::thread\";\n"
           "// a std::thread in a comment\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(RawThreadTest, ThreadOwnersAreExemptAndSuppressionWorks) {
  for (const char* home :
       {"src/common/parallel.h", "src/common/parallel.cc",
        "src/zql/scheduler.h", "src/zql/scheduler.cc",
        "src/server/query_service.h", "src/server/query_service.cc"}) {
    EXPECT_TRUE(LintFile(File(home, "std::thread t_;\n")).empty()) << home;
  }
  EXPECT_TRUE(LintFile(File("src/engine/shared_scan.cc",
                            "// Joined before the pass returns.\n"
                            "// zv-lint: raw-thread\n"
                            "std::thread t([] {});\n"))
                  .empty());
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

TEST(UnorderedIterTest, FlagsIterationOverDeclaredUnorderedMap) {
  const auto vs = LintFile(
      File("src/server/registry.cc",
           "std::unordered_map<std::string, int> counts_;\n"
           "void F() { for (const auto& [k, v] : counts_) Use(k, v); }\n"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unordered-iter");
  EXPECT_EQ(vs[0].line, 2);
  EXPECT_NE(vs[0].detail.find("counts_"), std::string::npos);
}

TEST(UnorderedIterTest, VectorIterationIsNotFlagged) {
  const auto vs = LintFile(
      File("src/server/registry.cc",
           "std::vector<int> xs_;\n"
           "void F() { for (int x : xs_) Use(x); }\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(UnorderedIterTest, CompanionHeaderDeclarationIsVisible) {
  const SourceFile h =
      File("src/server/registry.h",
           "class R { std::unordered_set<std::string> names_; };\n");
  const auto vs = LintFile(
      File("src/server/registry.cc",
           "void R::F() { for (const auto& n : names_) Use(n); }\n"),
      {h});
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unordered-iter");
}

TEST(UnorderedIterTest, OrderIndependentAnnotationSilences) {
  const auto vs = LintFile(
      File("src/server/registry.cc",
           "std::unordered_map<std::string, int> counts_;\n"
           "// zv-lint: order-independent — summed into one scalar.\n"
           "void F() { for (const auto& [k, v] : counts_) total += v; }\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(UnorderedIterTest, MultiLineForHeaderIsStillCaught) {
  const auto vs = LintFile(
      File("src/server/registry.cc",
           "std::unordered_map<std::string, int> counts_;\n"
           "void F() {\n"
           "  for (const auto& kv :\n"
           "       counts_) {\n"
           "    Use(kv);\n"
           "  }\n"
           "}\n"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unordered-iter");
  EXPECT_EQ(vs[0].line, 3);
}

// ---------------------------------------------------------------------------
// manual-lock
// ---------------------------------------------------------------------------

TEST(ManualLockTest, FlagsBareLockAndUnlock) {
  const auto vs = LintFile(
      File("src/server/service.cc",
           "void F() { mu_.lock(); x++; mu_.unlock(); }\n"));
  ASSERT_EQ(vs.size(), 1u);  // one violation per line, not per call
  EXPECT_EQ(vs[0].rule, "manual-lock");
}

TEST(ManualLockTest, ScopedGuardsAreNotFlagged) {
  const auto vs = LintFile(
      File("src/server/service.cc",
           "void F() {\n"
           "  std::lock_guard<std::mutex> lock(mu_);\n"
           "  std::unique_lock<std::mutex> lk(mu2_);\n"
           "}\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(ManualLockTest, AnnotationSilences) {
  const auto vs = LintFile(
      File("src/common/bounded_queue.h",
           "lock.unlock();  // zv-lint: manual-lock unlock before notify\n"));
  EXPECT_TRUE(vs.empty());
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

TEST(LayeringTest, ApiToEngineEdgeIsRejected) {
  const std::vector<SourceFile> files = {
      File("src/api/handler.cc", "#include \"engine/scoring.h\"\n"),
      File("src/engine/scoring.h", "\n"),
  };
  const auto vs = LintIncludeGraph(files);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "layering");
  EXPECT_EQ(vs[0].file, "src/api/handler.cc");
  EXPECT_NE(vs[0].detail.find("api -> engine"), std::string::npos);
}

TEST(LayeringTest, SanctionedEdgesPass) {
  const std::vector<SourceFile> files = {
      File("src/api/handler.cc",
           "#include \"zql/parser.h\"\n#include \"common/status.h\"\n"),
      File("src/zql/parser.h", "#include \"engine/scoring.h\"\n"),
      File("src/engine/scoring.h", "#include \"storage/table.h\"\n"),
      File("src/storage/table.h", "#include \"common/status.h\"\n"),
      File("src/common/status.h", "\n"),
  };
  EXPECT_TRUE(LintIncludeGraph(files).empty());
}

TEST(LayeringTest, UpwardEdgeIsRejected) {
  const std::vector<SourceFile> files = {
      File("src/common/util.cc", "#include \"storage/table.h\"\n"),
      File("src/storage/table.h", "\n"),
  };
  const auto vs = LintIncludeGraph(files);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "layering");
  EXPECT_NE(vs[0].detail.find("common -> storage"), std::string::npos);
}

TEST(LayeringTest, UnknownLayerIsReported) {
  const std::vector<SourceFile> files = {
      File("src/newthing/x.cc", "#include \"common/status.h\"\n"),
      File("src/common/status.h", "\n"),
  };
  const auto vs = LintIncludeGraph(files);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "layering");
  EXPECT_NE(vs[0].detail.find("not in the layer table"), std::string::npos);
}

TEST(LayeringTest, CommentedOutIncludeIsNotAnEdge) {
  const std::vector<SourceFile> files = {
      File("src/api/handler.cc", "// #include \"engine/scoring.h\"\n"),
      File("src/engine/scoring.h", "\n"),
  };
  EXPECT_TRUE(LintIncludeGraph(files).empty());
}

TEST(LayeringTest, SystemIncludesAreIgnored) {
  const std::vector<SourceFile> files = {
      File("src/common/util.cc", "#include <vector>\n#include <string>\n"),
  };
  EXPECT_TRUE(LintIncludeGraph(files).empty());
}

TEST(LayeringTest, KnownLayerAndEdgePredicates) {
  EXPECT_TRUE(KnownLayer("zql"));
  EXPECT_FALSE(KnownLayer("newthing"));
  EXPECT_TRUE(LayerEdgeAllowed("api", "zql"));
  EXPECT_TRUE(LayerEdgeAllowed("zql", "engine"));
  EXPECT_FALSE(LayerEdgeAllowed("api", "engine"));
  EXPECT_FALSE(LayerEdgeAllowed("engine", "zql"));
  EXPECT_FALSE(LayerEdgeAllowed("common", "storage"));
}

// ---------------------------------------------------------------------------
// include-cycle
// ---------------------------------------------------------------------------

TEST(IncludeCycleTest, ReportsMinimalTwoFileCycle) {
  const std::vector<SourceFile> files = {
      File("src/zql/a.h", "#include \"zql/b.h\"\n"),
      File("src/zql/b.h", "#include \"zql/a.h\"\n"),
  };
  const auto vs = LintIncludeGraph(files);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "include-cycle");
  EXPECT_NE(vs[0].detail.find("src/zql/a.h"), std::string::npos);
  EXPECT_NE(vs[0].detail.find("src/zql/b.h"), std::string::npos);
}

TEST(IncludeCycleTest, ReportsMinimalCycleNotTheWholeStack) {
  // entry -> a -> b -> c -> b: the cycle is {b, c}, and `entry`/`a` must
  // not appear in the report even though they sit on the DFS stack.
  const std::vector<SourceFile> files = {
      File("src/zql/entry.h", "#include \"zql/a.h\"\n"),
      File("src/zql/a.h", "#include \"zql/b.h\"\n"),
      File("src/zql/b.h", "#include \"zql/c.h\"\n"),
      File("src/zql/c.h", "#include \"zql/b.h\"\n"),
  };
  const auto vs = LintIncludeGraph(files);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "include-cycle");
  EXPECT_EQ(vs[0].detail.find("src/zql/entry.h"), std::string::npos);
  EXPECT_EQ(vs[0].detail.find("src/zql/a.h"), std::string::npos);
  EXPECT_NE(vs[0].detail.find("src/zql/b.h"), std::string::npos);
  EXPECT_NE(vs[0].detail.find("src/zql/c.h"), std::string::npos);
}

TEST(IncludeCycleTest, AcyclicGraphIsClean) {
  const std::vector<SourceFile> files = {
      File("src/zql/a.h", "#include \"zql/b.h\"\n#include \"zql/c.h\"\n"),
      File("src/zql/b.h", "#include \"zql/c.h\"\n"),
      File("src/zql/c.h", "\n"),
  };
  EXPECT_TRUE(LintIncludeGraph(files).empty());
}

TEST(IncludeCycleTest, SlashlessIncludeResolvesToOwnDirectory) {
  const std::vector<SourceFile> files = {
      File("src/zql/a.h", "#include \"b.h\"\n"),
      File("src/zql/b.h", "#include \"a.h\"\n"),
  };
  const auto vs = LintIncludeGraph(files);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "include-cycle");
}

// ---------------------------------------------------------------------------
// LintAll + baseline ratchet
// ---------------------------------------------------------------------------

TEST(LintAllTest, ResolvesCompanionHeadersAndSorts) {
  const std::vector<SourceFile> files = {
      File("src/server/b.cc",
           "void R::F() { for (const auto& n : names_) Use(n); }\n"),
      File("src/server/b.h",
           "class R { std::unordered_set<std::string> names_; };\n"),
      File("src/api/a.cc", "int x = rand();\n"),
  };
  const auto vs = LintAll(files);
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].file, "src/api/a.cc");  // sorted by file
  EXPECT_EQ(vs[0].rule, "raw-rand");
  EXPECT_EQ(vs[1].rule, "unordered-iter");
}

TEST(BaselineTest, ParseIgnoresCommentsAndBlanks) {
  const Baseline b = ParseBaseline(
      "# zv-lint baseline\n"
      "\n"
      "raw-rand|src/api/a.cc|int x = rand();\n");
  ASSERT_EQ(b.keys.size(), 1u);
  EXPECT_EQ(b.keys[0], "raw-rand|src/api/a.cc|int x = rand();");
}

TEST(BaselineTest, RatchetPassesOldFailsNewReportsStale) {
  const SourceFile old_site = File("src/api/a.cc", "int x = rand();\n");
  const auto before = LintAll({old_site});
  ASSERT_EQ(before.size(), 1u);
  const Baseline baseline = ParseBaseline(FormatBaseline(before));

  // The baselined site passes.
  std::vector<std::string> stale;
  EXPECT_TRUE(ApplyBaseline(before, baseline, &stale).empty());
  EXPECT_TRUE(stale.empty());

  // A new violation in another file still fails.
  const auto with_new = LintAll(
      {old_site, File("src/api/b.cc", "std::random_device rd;\n")});
  const auto remaining = ApplyBaseline(with_new, baseline, &stale);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].file, "src/api/b.cc");

  // Fixing the old site turns its baseline entry stale.
  stale.clear();
  const auto after_fix = LintAll({File("src/api/a.cc", "int x = 7;\n")});
  EXPECT_TRUE(ApplyBaseline(after_fix, baseline, &stale).empty());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_NE(stale[0].find("raw-rand"), std::string::npos);
}

TEST(BaselineTest, KeyIsWhitespaceNormalized) {
  const auto tight = LintAll({File("src/api/a.cc", "int x = rand();\n")});
  const auto loose =
      LintAll({File("src/api/a.cc", "   int  x  =  rand();\n")});
  ASSERT_EQ(tight.size(), 1u);
  ASSERT_EQ(loose.size(), 1u);
  EXPECT_EQ(tight[0].key, loose[0].key);
}

TEST(RulesTest, EveryRuleIdIsRegistered) {
  std::vector<std::string> ids;
  for (const RuleInfo& r : Rules()) ids.push_back(r.id);
  for (const char* expected :
       {"raw-clock", "raw-rand", "unordered-iter", "manual-lock", "raw-simd",
        "raw-thread", "layering", "include-cycle"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << expected;
  }
}

}  // namespace
}  // namespace zv::lint
