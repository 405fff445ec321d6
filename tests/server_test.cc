/// \file server_test.cc
/// \brief Serving-layer contracts: concurrent multi-session execution is
/// byte-identical to serial; repeat queries hit the ResultCache; a table
/// mutation (epoch bump) invalidates; Cancel() of an in-flight DTW scan
/// returns kCancelled promptly and leaves the service healthy; admission
/// control rejects overload with kUnavailable; sessions expire by TTL and
/// execute their own queries in FIFO order.

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/lru_cache.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "server/fingerprint.h"
#include "server/query_service.h"
#include "tests/test_util.h"
#include "zql/builder.h"
#include "zql/canonical.h"
#include "zql/executor.h"
#include "zql/parser.h"

namespace zv {
namespace {

using server::kMaxInflight;
using server::QueryFingerprint;
using server::QueryHandle;
using server::QueryService;
using server::ServiceOptions;
using server::SessionId;

/// Canonical byte rendering of a result: identities plus the exact bit
/// patterns of every double, so "byte-identical" means what it says.
std::string Canon(const zql::ZqlResult& r) {
  std::string out;
  auto hex = [&](double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    out += StrFormat("%016llx,", static_cast<unsigned long long>(bits));
  };
  for (const auto& o : r.outputs) {
    out += o.name;
    out += '[';
    for (const auto& v : o.visuals) {
      out += v.Label();
      out += '(';
      for (const auto& x : v.xs) {
        out += x.ToString();
        out += ',';
      }
      for (const auto& s : v.series) {
        out += s.name;
        out += ':';
        for (double y : s.ys) hex(y);
      }
      out += ')';
    }
    out += ']';
  }
  return out;
}

/// A table of `num_series` random-walk series, each `width` points long —
/// the shape that makes DTW scans expensive (O(width^2) per pair).
std::shared_ptr<Table> MakeWaves(size_t num_series, size_t width,
                                 uint64_t seed = 5, double drift = 0.0,
                                 const char* name = "waves") {
  Schema schema({
      {"t", ColumnType::kCategorical},
      {"sid", ColumnType::kCategorical},
      {"y", ColumnType::kDouble},
  });
  TableBuilder b(name, schema);
  std::mt19937 rng(static_cast<uint32_t>(seed));
  std::normal_distribution<double> step(0.0, 1.0);
  for (size_t s = 0; s < num_series; ++s) {
    double level = step(rng) * 10;
    for (size_t t = 0; t < width; ++t) {
      level += step(rng) + drift;
      b.AppendCategorical(0, Value::Int(static_cast<int64_t>(t)));
      b.AppendCategorical(1, Value::Str("s" + std::to_string(s)));
      b.AppendDouble(2, level);
      b.CommitRow();
    }
  }
  return b.Finish();
}

/// argmin over v1 of (min over v2 of D) — every combination hides an inner
/// scan, so the full evaluation is O(num_series^2) DTW pairs: seconds of
/// work, the "long scan" the cancellation tests interrupt.
const char* const kAllPairsQuery =
    "f1 | 't' | 'y' | v1 <- 'sid'.* | | |\n"
    "*f2 | 't' | 'y' | v2 <- 'sid'.* | | | v3 <- "
    "argmin_v1[k=1] min_v2 D(f1, f2)";

ServiceOptions DtwServiceOptions() {
  ServiceOptions opts;
  TaskOptions topts;
  topts.metric = DistanceMetric::kDtw;
  opts.zql.tasks = TaskLibrary::Default(topts);
  return opts;
}

/// Polls `service` until at least one query is executing (deadline 10 s).
bool WaitUntilInFlight(QueryService& service) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (service.stats().in_flight > 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Forces the ParallelFor worker count for the test's scope (the pool
/// fans out even on a 1-core machine, exercising chunk-boundary checks).
class ScopedThreads {
 public:
  explicit ScopedThreads(size_t n) { SetParallelThreads(n); }
  ~ScopedThreads() { SetParallelThreads(0); }
};

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

TEST(FingerprintTest, CoversEveryResultRelevantCoordinate) {
  // The service keys on the canonical text of the parsed query, so one
  // query spelled two ways — whitespace, tabs, blank lines — is one key.
  const auto canonical = [](const std::string& text) {
    auto q = zql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? zql::CanonicalText(q.value()) : std::string();
  };
  const std::string text = canonical("*f1 | 'year' | 'sales' | | | |");
  ASSERT_FALSE(text.empty());
  const std::string base = QueryFingerprint(
      "sales", 1, "roaring", zql::OptLevel::kInterTask, text, "");
  // Cosmetic retyping: same fingerprint.
  EXPECT_EQ(base,
            QueryFingerprint("sales", 1, "roaring", zql::OptLevel::kInterTask,
                             canonical("\n  *f1 |\t'year'|  'sales' |||  \n\n"),
                             ""));
  // Any real coordinate change: different fingerprint.
  EXPECT_NE(base, QueryFingerprint("sales", 2, "roaring",
                                   zql::OptLevel::kInterTask, text, ""));
  EXPECT_NE(base, QueryFingerprint("census", 1, "roaring",
                                   zql::OptLevel::kInterTask, text, ""));
  EXPECT_NE(base, QueryFingerprint("sales", 1, "scan",
                                   zql::OptLevel::kInterTask, text, ""));
  EXPECT_NE(base, QueryFingerprint("sales", 1, "roaring",
                                   zql::OptLevel::kNoOpt, text, ""));
  EXPECT_NE(base,
            QueryFingerprint("sales", 1, "roaring", zql::OptLevel::kInterTask,
                             canonical("*f1 | 'year' | 'profit' | | | |"),
                             ""));
  EXPECT_NE(base, QueryFingerprint("sales", 1, "roaring",
                                   zql::OptLevel::kInterTask, text,
                                   "sketchhash"));
}

TEST(FingerprintTest, SketchHashSeparatesEverySketchCoordinate) {
  Visualization base;
  base.x_attr = "year";
  base.y_attr = "sales";
  base.xs = {Value::Int(2014), Value::Int(2015)};
  base.series = {{"sales", {1.0, 2.0}}};
  const auto fp = [](const Visualization& v) {
    return server::UserInputsFingerprint({{"f1", v}});
  };
  EXPECT_EQ(server::UserInputsFingerprint({}), "");
  Visualization same = base;
  EXPECT_EQ(fp(base), fp(same));
  std::vector<Visualization> changed(7, base);
  changed[0].y_attr = "profit";
  changed[1].constraints = "location='US'";
  changed[2].slices = {{"product", Value::Str("chair")}};
  changed[3].xs[1] = Value::Double(2015.0);  // same value, other type
  changed[4].series[0].ys[1] = 2.5;
  changed[5].series[0].name = "profit";
  changed[6].series.push_back({"profit", {1.0, 2.0}});
  for (size_t i = 0; i < changed.size(); ++i) {
    EXPECT_NE(fp(base), fp(changed[i])) << "coordinate " << i;
  }
  // The binding name is part of the key.
  EXPECT_NE(fp(base), server::UserInputsFingerprint({{"f2", base}}));
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  ShardedLruCache<std::string> cache(/*max_bytes=*/100, /*shards=*/1);
  auto val = [](const char* s) { return std::make_shared<std::string>(s); };
  cache.Put("a", val("a"), 40);
  cache.Put("b", val("b"), 40);
  EXPECT_NE(cache.Get("a"), nullptr);  // refresh a: b is now LRU
  cache.Put("c", val("c"), 40);        // 120 > 100: evicts b
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  // Entries larger than the budget are not cached at all.
  cache.Put("huge", val("huge"), 500);
  EXPECT_EQ(cache.Get("huge"), nullptr);
  // EraseIf drops matching keys and their bytes, without counting
  // evictions.
  cache.EraseIf([](const std::string& key) { return key == "a"; });
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 40u);
  EXPECT_EQ(cache.evictions(), 1u);
}

// ---------------------------------------------------------------------------
// Byte-identity under concurrency
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, ConcurrentSessionsByteIdenticalToSerial) {
  auto table = zv::testing::MakeTinySales();
  const std::vector<std::string> queries = {
      // Similarity search; the output iterates the selection.
      "f1 | 'year' | 'sales' | 'product'.'chair' | | |\n"
      "f2 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- "
      "argmin_v1[k=2] D(f2, f1)\n"
      "*f3 | 'year' | 'profit' | v2 | | |",
      // Trend filter.
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' | | v2 "
      "<- argany_v1[t > 0] T(f1)",
      // Two Processes sharing one candidate set (context dedupe inside).
      "f1 | 'year' | 'profit' | 'product'.'desk' | | |\n"
      "*f2 | 'year' | 'profit' | v1 <- 'product'.* | | | (v2 <- "
      "argmin_v1[k=1] D(f2, f1)), (v3 <- argmax_v1[k=1] D(f2, f1))",
      // User-drawn sketch as the reference.
      "-f1 | 'year' | 'sales' | | | |\n"
      "*f2 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- "
      "argmin_v1[k=1] D(f2, f1)",
  };
  Visualization sketch;
  sketch.x_attr = "year";
  sketch.y_attr = "sales";
  sketch.xs = {Value::Int(2014), Value::Int(2015), Value::Int(2016)};
  sketch.series = {{"sales", {5.0, 1.0, 9.0}}};

  // Serial reference: a bare executor, no serving layer, no caches.
  std::vector<std::string> expected;
  {
    RoaringDatabase db;
    ZV_ASSERT_OK(db.RegisterTable(table));
    for (const std::string& q : queries) {
      zql::ZqlExecutor exec(&db, "sales");
      exec.SetUserInput("f1", sketch);
      ZV_ASSERT_OK_AND_ASSIGN(zql::ZqlResult r, exec.ExecuteText(q));
      expected.push_back(Canon(r));
    }
  }

  ScopedThreads threads(3);  // pool scoring under the service workers
  QueryService service;
  ZV_ASSERT_OK(service.RegisterDataset(table));
  constexpr size_t kSessions = 4;
  constexpr size_t kRounds = 2;  // round 2 is served from the caches
  std::vector<SessionId> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    ZV_ASSERT_OK_AND_ASSIGN(SessionId id, service.CreateSession());
    ZV_ASSERT_OK(service.SetUserInput(id, "f1", sketch));
    sessions.push_back(id);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (size_t s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto submitted = service.Submit(sessions[s], "sales", queries[q]);
          if (!submitted.ok()) {
            ++mismatches;
            continue;
          }
          QueryHandle handle = std::move(submitted).value();
          if (!handle.Wait().ok() ||
              Canon(*handle.result()) != expected[q]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "concurrent session results diverged from serial execution";
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kSessions * kRounds * queries.size());
  EXPECT_GT(stats.cache_hits, 0u);  // round 2 (at least) hit
}

// ---------------------------------------------------------------------------
// Caching
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, RepeatQueryServedFromResultCache) {
  QueryService service;
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
  const std::string q =
      "f1 | 'year' | 'sales' | 'product'.'chair' | | |\n"
      "*f2 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- "
      "argmin_v1[k=2] D(f2, f1)";

  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle first,
                          service.Submit(session, "sales", q));
  ZV_ASSERT_OK(first.Wait());
  EXPECT_EQ(first.stats().cache_hits, 0u);
  EXPECT_EQ(first.stats().cache_misses, 1u);

  // Cosmetically different text, same canonical query: still a hit.
  const std::string retyped =
      "f1 | 'year' | 'sales' |   'product'.'chair' | | |\n"
      "*f2 |\t'year' | 'sales' | v1 <- 'product'.* | | |  v2 <- "
      "argmin_v1[k=2]  D(f2, f1)";
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle second,
                          service.Submit(session, "sales", retyped));
  ZV_ASSERT_OK(second.Wait());
  EXPECT_EQ(second.stats().cache_hits, 1u);
  EXPECT_EQ(Canon(*second.result()), Canon(*first.result()));
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(QueryServiceTest, TypedAndTextSubmissionsShareOneCacheEntry) {
  // The PR-4 unification contract: a ZqlBuilder-built query and its
  // equivalent ZQL text produce the same QueryFingerprint (the cache key is
  // the canonical AST serialization, not source text), so the second
  // submission — through the *other* entry point — is a ResultCache hit.
  QueryService service;
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());

  zql::ZqlQuery built =
      zql::ZqlBuilder()
          .Row("f1")
              .X("year").Y("sales").Z("product", "chair")
          .Row("f2").Output()
              .X("year").Y("sales")
              .ZDeclare("v1", zql::ZSet::All("product"))
              .Process(zql::ProcessBuilder({"v2"}).ArgMin({"v1"}).K(2).Call(
                  "D", {"f2", "f1"}))
          .Build().ValueOrDie();
  const std::string text =
      "f1 | 'year' | 'sales' | 'product'.'chair' | | |\n"
      "*f2 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- "
      "argmin_v1[k=2] D(f2, f1)";

  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle typed,
                          service.Submit(session, "sales", built));
  ZV_ASSERT_OK(typed.Wait());
  EXPECT_EQ(typed.stats().cache_misses, 1u);

  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle texty,
                          service.Submit(session, "sales", text));
  ZV_ASSERT_OK(texty.Wait());
  EXPECT_EQ(typed.fingerprint(), texty.fingerprint())
      << "builder-built and parsed-text queries must share one fingerprint";
  EXPECT_EQ(texty.stats().cache_hits, 1u)
      << "the text twin of a typed query must be a ResultCache hit";
  EXPECT_EQ(Canon(*texty.result()), Canon(*typed.result()));

  // The canonical serialization itself is a third spelling of the same key.
  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle canonical,
      service.Submit(session, "sales", zql::CanonicalText(built)));
  ZV_ASSERT_OK(canonical.Wait());
  EXPECT_EQ(canonical.fingerprint(), typed.fingerprint());
  EXPECT_EQ(canonical.stats().cache_hits, 1u);
}

TEST(QueryServiceTest, ConstraintSpellingsRenderOneLabel) {
  // Two spellings of one constraint share a fingerprint, so whichever
  // arrives first fills the ResultCache for both. Visualizations carry the
  // canonical spelling, so both arrival orders return the same bytes.
  const std::string spaced =
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | profit > 5 | |";
  const std::string tight =
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | profit>5 | |";
  std::vector<std::string> rendered;
  for (const auto& [first, second] :
       std::vector<std::pair<std::string, std::string>>{{spaced, tight},
                                                        {tight, spaced}}) {
    SCOPED_TRACE("first: " + first);
    QueryService service;
    ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
    ZV_ASSERT_OK_AND_ASSIGN(SessionId s1, service.CreateSession());
    ZV_ASSERT_OK_AND_ASSIGN(SessionId s2, service.CreateSession());
    ZV_ASSERT_OK_AND_ASSIGN(QueryHandle h1, service.Submit(s1, "sales", first));
    ZV_ASSERT_OK(h1.Wait());
    ZV_ASSERT_OK_AND_ASSIGN(QueryHandle h2,
                            service.Submit(s2, "sales", second));
    ZV_ASSERT_OK(h2.Wait());
    EXPECT_EQ(h2.stats().cache_hits, 1u);
    EXPECT_EQ(Canon(*h2.result()), Canon(*h1.result()));
    ASSERT_EQ(h1.result()->outputs.size(), 1u);
    ASSERT_FALSE(h1.result()->outputs[0].visuals.empty());
    for (const auto& v : h1.result()->outputs[0].visuals) {
      EXPECT_EQ(v.constraints, "profit>5");
    }
    rendered.push_back(Canon(*h1.result()));
  }
  EXPECT_EQ(rendered[0], rendered[1]);
}

TEST(QueryServiceTest, SplitOperatorIsNeverServedAsTheJoinedOne) {
  // "profit < = 5" is a SQL parse error: the lexer reads "< =" as two
  // tokens. Its canonical spelling keeps the split, so it never shares a
  // fingerprint — or a cached result — with "profit<=5". On one session,
  // in both arrival orders, the split spelling fails and the joined one
  // runs.
  const std::string joined =
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | profit<=5 | |";
  const std::string split =
      "*f1 | 'year' | 'sales' | v1 <- 'product'.* | profit < = 5 | |";
  for (bool joined_first : {true, false}) {
    SCOPED_TRACE(joined_first ? "joined first" : "split first");
    QueryService service;
    ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
    ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
    std::vector<std::string> order = {joined, split};
    if (!joined_first) std::swap(order[0], order[1]);
    for (const std::string& q : order) {
      ZV_ASSERT_OK_AND_ASSIGN(QueryHandle h,
                              service.Submit(session, "sales", q));
      const Status status = h.Wait();
      if (q == joined) {
        ZV_EXPECT_OK(status);
      } else {
        EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
        EXPECT_NE(status.message().find("expected literal"),
                  std::string::npos)
            << status.message();
      }
    }
  }
}

TEST(QueryServiceTest, ParseErrorsResolveOnTheHandleWithDiagnostics) {
  QueryService service;
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());

  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle handle,
      service.Submit(session, "sales", "*f1 | 'year' | ??? | | | |"));
  const Status status = handle.Wait();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("line 1"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("'?\?\?'"), std::string::npos)
      << status.message();
  EXPECT_EQ(handle.result(), nullptr);
  EXPECT_EQ(service.stats().failed, 1u);

  // Session and dataset validation still happens at Submit, even for
  // unparseable text.
  auto bad_session =
      service.Submit(SessionId{424242}, "sales", "*f1 | ??? |");
  EXPECT_EQ(bad_session.status().code(), StatusCode::kNotFound);
  auto bad_dataset = service.Submit(session, "nope", "*f1 | ??? |");
  EXPECT_EQ(bad_dataset.status().code(), StatusCode::kNotFound);

  // The service stays healthy.
  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle ok,
      service.Submit(session, "sales", "*f1 | 'year' | 'sales' | | | |"));
  ZV_ASSERT_OK(ok.Wait());
}

TEST(QueryServiceTest, UserInputChangesFingerprintNotStaleServed) {
  QueryService service;
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
  // The output component iterates v2, so the emitted visualization IS the
  // sketch's nearest neighbour — serving a stale entry would visibly
  // return the wrong product.
  const std::string q =
      "-f1 | 'year' | 'sales' | | | |\n"
      "f2 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- "
      "argmin_v1[k=1] D(f2, f1)\n"
      "*f3 | 'year' | 'sales' | v2 | | |";
  Visualization rising;
  rising.x_attr = "year";
  rising.y_attr = "sales";
  rising.xs = {Value::Int(2014), Value::Int(2015), Value::Int(2016)};
  rising.series = {{"sales", {1.0, 2.0, 3.0}}};
  Visualization falling = rising;
  falling.series = {{"sales", {3.0, 2.0, 1.0}}};

  ZV_ASSERT_OK(service.SetUserInput(session, "f1", rising));
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle h1, service.Submit(session, "sales", q));
  ZV_ASSERT_OK(h1.Wait());

  // A different sketch must not be served the rising sketch's result.
  ZV_ASSERT_OK(service.SetUserInput(session, "f1", falling));
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle h2, service.Submit(session, "sales", q));
  ZV_ASSERT_OK(h2.Wait());
  EXPECT_EQ(h2.stats().cache_hits, 0u);
  EXPECT_NE(Canon(*h1.result()), Canon(*h2.result()));

  // Re-registering the first sketch hits its original entry again.
  ZV_ASSERT_OK(service.SetUserInput(session, "f1", rising));
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle h3, service.Submit(session, "sales", q));
  ZV_ASSERT_OK(h3.Wait());
  EXPECT_EQ(h3.stats().cache_hits, 1u);
  EXPECT_EQ(Canon(*h3.result()), Canon(*h1.result()));
}

/// Runs `run` once per backend, on a fresh database holding the tiny
/// sales table.
template <typename Fn>
void ForBothBackends(Fn run) {
  const std::vector<std::shared_ptr<Database>> dbs = {
      std::make_shared<RoaringDatabase>(), std::make_shared<ScanDatabase>()};
  for (const std::shared_ptr<Database>& db : dbs) {
    SCOPED_TRACE(db->name());
    auto table = zv::testing::MakeTinySales();
    ZV_ASSERT_OK(db->RegisterTable(table));
    run(db, table);
  }
}

TEST(QueryServiceTest, ReExecutionIsByteIdenticalWithoutResultCache) {
  // A ScoringContext lives for one query: with the result cache off, a
  // repeat query rebuilds its context and must score to the same bytes.
  const std::string q =
      "f1 | 'year' | 'sales' | 'product'.'chair' | | |\n"
      "*f2 | 'year' | 'sales' | v1 <- 'product'.* | | | v2 <- "
      "argmin_v1[k=2] D(f2, f1)";
  ForBothBackends([&](std::shared_ptr<Database> db,
                      std::shared_ptr<Table> table) {
    ServiceOptions opts;
    opts.result_cache = false;  // force re-execution
    QueryService service(opts);
    ZV_ASSERT_OK(service.RegisterDataset(table, db));
    ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
    ZV_ASSERT_OK_AND_ASSIGN(QueryHandle h1,
                            service.Submit(session, "sales", q));
    ZV_ASSERT_OK(h1.Wait());
    ZV_ASSERT_OK_AND_ASSIGN(QueryHandle h2,
                            service.Submit(session, "sales", q));
    ZV_ASSERT_OK(h2.Wait());
    EXPECT_EQ(h2.stats().cache_hits, 0u);  // result cache off
    EXPECT_EQ(h1.stats().contexts_reused, 0u);
    EXPECT_EQ(h2.stats().contexts_reused, 0u);  // nothing outlives h1
    EXPECT_EQ(Canon(*h1.result()), Canon(*h2.result()));
    EXPECT_EQ(service.stats().contexts_reused, 0u);
  });
}

TEST(ZqlExecutorTest, ScoringContextDedupedWithinOneQuery) {
  // Declarations whose D() calls cover one component set share a context,
  // in either argument order; declarations over different sets build
  // their own. The three sets of the second query pairwise share a name,
  // so a key that dropped any one name would merge two of them.
  const std::string f1_row =
      "f1 | 'year' | 'profit' | 'product'.'desk' | | |\n";
  const std::string f3_row =
      "f3 | 'year' | 'profit' | 'product'.'chair' | | |\n";
  const std::string candidates =
      "*f2 | 'year' | 'profit' | v1 <- 'product'.* | | | ";
  const std::string same_set =
      f1_row + candidates +
      "(v2 <- argmin_v1[k=1] D(f2, f1)), (v3 <- argmax_v1[k=1] D(f1, f2))";
  const std::string three_sets =
      f1_row + f3_row + candidates +
      "(v2 <- argmin_v1[k=1] D(f2, f1)), (v3 <- argmax_v1[k=1] D(f2, f3)), "
      "(v4 <- argmin_v1[k=1] D(f1, f3))";
  ForBothBackends([&](std::shared_ptr<Database> db, std::shared_ptr<Table>) {
    zql::ZqlExecutor exec(db.get(), "sales");
    ZV_ASSERT_OK_AND_ASSIGN(zql::ZqlResult shared, exec.ExecuteText(same_set));
    EXPECT_EQ(shared.stats.contexts_reused, 1u)
        << "the second declaration should reuse the first's context";
    ZV_ASSERT_OK_AND_ASSIGN(zql::ZqlResult distinct,
                            exec.ExecuteText(three_sets));
    EXPECT_EQ(distinct.stats.contexts_reused, 0u)
        << "declarations over different component sets share nothing";
  });
}

TEST(QueryServiceTest, CacheBudgetIsTheResultCaches) {
  constexpr size_t kMiB = size_t{1} << 20;
  const auto budget = [](size_t cache_mb) {
    ServiceOptions opts;
    opts.cache_mb = cache_mb;
    opts.max_inflight = 1;
    return QueryService(opts).cache_bytes();
  };
  const size_t from_env = static_cast<size_t>(-1);
  unsetenv("ZV_CACHE_MB");
  EXPECT_EQ(budget(from_env), 48 * kMiB);  // the default
  setenv("ZV_CACHE_MB", "10", 1);
  EXPECT_EQ(budget(from_env), 10 * kMiB);  // all of it goes to results
  setenv("ZV_CACHE_MB", "0", 1);
  EXPECT_EQ(budget(from_env), 0u);
  // 2^44 MB is past SIZE_MAX bytes: the budget saturates instead of
  // wrapping to 0 (nothing is reserved up front).
  setenv("ZV_CACHE_MB", "17592186044416", 1);
  EXPECT_EQ(budget(from_env), SIZE_MAX);
  unsetenv("ZV_CACHE_MB");
  EXPECT_EQ(budget(10), 10 * kMiB);
  EXPECT_EQ(budget(size_t{1} << 44), SIZE_MAX);

  // 0 disables the cache: a repeat query executes again.
  ServiceOptions off;
  off.cache_mb = 0;
  QueryService service(off);
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
  const std::string q = "*f1 | 'year' | 'sales' | | | |";
  for (int i = 0; i < 2; ++i) {
    ZV_ASSERT_OK_AND_ASSIGN(QueryHandle h, service.Submit(session, "sales", q));
    ZV_ASSERT_OK(h.Wait());
    EXPECT_EQ(h.stats().cache_hits, 0u);
  }
  EXPECT_EQ(service.stats().result_cache_entries, 0u);
}

TEST(QueryServiceTest, MaxInflightIsCapped) {
  // One past the cap, through the option and through the environment;
  // the service starts kMaxInflight workers, never more.
  ServiceOptions opts;
  opts.max_inflight = kMaxInflight + 1;
  EXPECT_EQ(QueryService(opts).max_inflight(), kMaxInflight);
  const std::string over = std::to_string(kMaxInflight + 1);
  setenv("ZV_MAX_INFLIGHT", over.c_str(), 1);
  EXPECT_EQ(QueryService().max_inflight(), kMaxInflight);
  setenv("ZV_MAX_INFLIGHT", "3", 1);
  EXPECT_EQ(QueryService().max_inflight(), 3u);
  unsetenv("ZV_MAX_INFLIGHT");
}

TEST(QueryServiceTest, EpochBumpInvalidatesCachedResults) {
  // Two "waves" tables with the same name and shape but different data.
  auto v1 = MakeWaves(6, 16, /*seed=*/5);
  auto v2 = MakeWaves(6, 16, /*seed=*/99);
  QueryService service;
  ZV_ASSERT_OK(service.RegisterDataset(v1));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
  const std::string q =
      "f1 | 't' | 'y' | 'sid'.'s0' | | |\n"
      "*f2 | 't' | 'y' | v1 <- 'sid'.* | | | v2 <- argmin_v1[k=3] "
      "D(f2, f1)";

  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle before,
                          service.Submit(session, "waves", q));
  ZV_ASSERT_OK(before.Wait());
  ZV_ASSERT_OK_AND_ASSIGN(uint64_t epoch1, service.DatasetEpoch("waves"));
  EXPECT_EQ(epoch1, 1u);
  // A second dataset's entry must outlive the bump of the first.
  ZV_ASSERT_OK(service.RegisterDataset(
      MakeWaves(6, 16, /*seed=*/7, /*drift=*/0.0, "other")));
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle other_before,
                          service.Submit(session, "other", q));
  ZV_ASSERT_OK(other_before.Wait());
  EXPECT_EQ(service.stats().result_cache_entries, 2u);

  ZV_ASSERT_OK(service.ReplaceDataset(v2));
  ZV_ASSERT_OK_AND_ASSIGN(uint64_t epoch2, service.DatasetEpoch("waves"));
  EXPECT_EQ(epoch2, 2u);
  // The bumped dataset's entry is released at once, not left to age out.
  EXPECT_EQ(service.stats().result_cache_entries, 1u);
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle other_after,
                          service.Submit(session, "other", q));
  ZV_ASSERT_OK(other_after.Wait());
  EXPECT_EQ(other_after.stats().cache_hits, 1u);

  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle after,
                          service.Submit(session, "waves", q));
  ZV_ASSERT_OK(after.Wait());
  EXPECT_EQ(after.stats().cache_hits, 0u) << "stale entry must not serve";
  EXPECT_NE(Canon(*before.result()), Canon(*after.result()))
      << "recomputed result should reflect the mutated table";

  // The old epoch's entry is unreachable but the new one caches normally.
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle again,
                          service.Submit(session, "waves", q));
  ZV_ASSERT_OK(again.Wait());
  EXPECT_EQ(again.stats().cache_hits, 1u);
  EXPECT_EQ(Canon(*again.result()), Canon(*after.result()));
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, CancelInflightDtwScanReturnsPromptly) {
  ScopedThreads threads(4);  // pooled scoring: chunk-boundary cancel checks
  QueryService service(DtwServiceOptions());
  // ~200^2 DTW pairs at width 192: tens of seconds if left alone.
  ZV_ASSERT_OK(service.RegisterDataset(MakeWaves(200, 192)));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());

  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle handle,
                          service.Submit(session, "waves", kAllPairsQuery));
  ASSERT_TRUE(WaitUntilInFlight(service)) << "query never started";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // mid-scan
  ASSERT_FALSE(handle.done()) << "workload too small to test cancellation";

  const auto t0 = std::chrono::steady_clock::now();
  handle.Cancel();
  const Status status = handle.Wait();
  const double cancel_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_EQ(handle.result(), nullptr);
  EXPECT_LT(cancel_ms, 5000.0) << "cancellation latency far too high";
  EXPECT_GE(service.stats().cancelled, 1u);

  // The service is healthy: the worker is free and serves new queries.
  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle small,
      service.Submit(session, "waves",
                     "*f1 | 't' | 'y' | 'sid'.'s0' | | |"));
  ZV_ASSERT_OK(small.Wait());
  ASSERT_NE(small.result(), nullptr);
  EXPECT_EQ(small.result()->outputs.size(), 1u);
}

TEST(QueryServiceTest, CancelQueuedQueryResolvesImmediately) {
  ServiceOptions opts = DtwServiceOptions();
  opts.max_inflight = 1;
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(MakeWaves(200, 192)));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId s1, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(SessionId s2, service.CreateSession());

  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle slow,
                          service.Submit(s1, "waves", kAllPairsQuery));
  ASSERT_TRUE(WaitUntilInFlight(service));
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle queued,
                          service.Submit(s2, "waves", kAllPairsQuery));

  // The queued query never started; Cancel resolves it without waiting
  // for the worker.
  queued.Cancel();
  EXPECT_EQ(queued.Wait().code(), StatusCode::kCancelled);

  slow.Cancel();
  EXPECT_EQ(slow.Wait().code(), StatusCode::kCancelled);
  EXPECT_GE(service.stats().cancelled, 1u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, OverloadReturnsUnavailable) {
  ServiceOptions opts = DtwServiceOptions();
  opts.max_inflight = 1;
  opts.max_queue = 1;
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(MakeWaves(200, 192)));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId s1, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(SessionId s2, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(SessionId s3, service.CreateSession());

  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle running,
                          service.Submit(s1, "waves", kAllPairsQuery));
  // Wait until it occupies the single worker (queue drained).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto st = service.stats();
    if (st.in_flight == 1 && st.queued == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle waiting,
                          service.Submit(s2, "waves", kAllPairsQuery));

  // Queue slot taken: the third concurrent query is refused, not queued.
  auto rejected = service.Submit(s3, "waves", kAllPairsQuery);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable)
      << rejected.status().ToString();
  EXPECT_EQ(service.stats().rejected, 1u);

  // Cancelling the waiting query frees its admission slot *immediately* —
  // the single worker is still occupied by `running`, so no pop can have
  // cleaned it up; a new submission must be admitted right away.
  waiting.Cancel();
  EXPECT_EQ(waiting.Wait().code(), StatusCode::kCancelled);
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle readmitted,
                          service.Submit(s2, "waves", kAllPairsQuery));

  readmitted.Cancel();
  running.Cancel();
  EXPECT_EQ(readmitted.Wait().code(), StatusCode::kCancelled);
  EXPECT_EQ(running.Wait().code(), StatusCode::kCancelled);

  // Capacity freed: the same session is admitted again.
  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle ok_now,
      service.Submit(s3, "waves", "*f1 | 't' | 'y' | 'sid'.'s0' | | |"));
  ZV_ASSERT_OK(ok_now.Wait());
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, SessionsExpireByTtlOnTheInjectedClock) {
  ManualClock clock;
  ServiceOptions opts;
  opts.clock = &clock;
  opts.session_ttl_ms = 1000;
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(zv::testing::MakeTinySales()));

  ZV_ASSERT_OK_AND_ASSIGN(SessionId idle, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(SessionId active, service.CreateSession());
  EXPECT_EQ(service.ActiveSessions(), 2u);

  clock.Advance(800);  // refresh `active` only
  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle h,
      service.Submit(active, "sales", "*f1 | 'year' | 'sales' | | | |"));
  ZV_ASSERT_OK(h.Wait());

  clock.Advance(800);  // idle: 1600ms > ttl; active: 800ms
  EXPECT_EQ(service.ActiveSessions(), 1u);
  const auto expired =
      service.Submit(idle, "sales", "*f1 | 'year' | 'sales' | | | |");
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kNotFound);
  // The surviving session still works.
  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle h2,
      service.Submit(active, "sales", "*f1 | 'year' | 'sales' | | | |"));
  ZV_ASSERT_OK(h2.Wait());
}

TEST(QueryServiceTest, PerSessionQueriesExecuteInFifoOrder) {
  ServiceOptions opts = DtwServiceOptions();
  opts.max_inflight = 4;  // capacity to run them concurrently — if allowed
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(MakeWaves(140, 160)));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(SessionId other, service.CreateSession());

  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle slow,
                          service.Submit(session, "waves", kAllPairsQuery));
  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle fast,
      service.Submit(session, "waves", "*f1 | 't' | 'y' | 'sid'.'s1' | | |"));
  ZV_ASSERT_OK_AND_ASSIGN(
      QueryHandle cross,
      service.Submit(other, "waves", "*f1 | 't' | 'y' | 'sid'.'s2' | | |"));

  // A different session's query overtakes (no global serialization)…
  ZV_ASSERT_OK(cross.Wait());
  EXPECT_FALSE(slow.done())
      << "the slow query should still be running (workload too small?)";
  // …but the same session's fast query must wait for the slow one.
  EXPECT_FALSE(fast.done());
  ZV_ASSERT_OK(fast.Wait());
  EXPECT_TRUE(slow.done()) << "per-session FIFO violated";
  ZV_ASSERT_OK(slow.Wait());
}

TEST(QueryServiceTest, ShutdownResolvesOutstandingHandles) {
  QueryHandle running, queued;
  {
    ServiceOptions opts = DtwServiceOptions();
    opts.max_inflight = 1;
    QueryService service(opts);
    ZV_ASSERT_OK(service.RegisterDataset(MakeWaves(200, 192)));
    ZV_ASSERT_OK_AND_ASSIGN(SessionId s1, service.CreateSession());
    ZV_ASSERT_OK_AND_ASSIGN(SessionId s2, service.CreateSession());
    ZV_ASSERT_OK_AND_ASSIGN(running,
                            service.Submit(s1, "waves", kAllPairsQuery));
    ASSERT_TRUE(WaitUntilInFlight(service));
    ZV_ASSERT_OK_AND_ASSIGN(queued,
                            service.Submit(s2, "waves", kAllPairsQuery));
  }  // destructor: drains queues, cancels the in-flight scan, joins
  EXPECT_TRUE(running.done());
  EXPECT_TRUE(queued.done());
  EXPECT_EQ(running.Wait().code(), StatusCode::kCancelled);
  EXPECT_EQ(queued.Wait().code(), StatusCode::kCancelled);
}

TEST(QueryServiceTest, EndSessionCancelsItsOutstandingWork) {
  ServiceOptions opts = DtwServiceOptions();
  opts.max_inflight = 1;
  QueryService service(opts);
  ZV_ASSERT_OK(service.RegisterDataset(MakeWaves(200, 192)));
  ZV_ASSERT_OK_AND_ASSIGN(SessionId session, service.CreateSession());
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle running,
                          service.Submit(session, "waves", kAllPairsQuery));
  ASSERT_TRUE(WaitUntilInFlight(service));
  ZV_ASSERT_OK_AND_ASSIGN(QueryHandle follow_up,
                          service.Submit(session, "waves", kAllPairsQuery));

  ZV_ASSERT_OK(service.EndSession(session));
  EXPECT_EQ(follow_up.Wait().code(), StatusCode::kCancelled);
  EXPECT_EQ(running.Wait().code(), StatusCode::kCancelled);
  const auto resubmit =
      service.Submit(session, "waves", "*f1 | 't' | 'y' | 'sid'.'s0' | | |");
  EXPECT_EQ(resubmit.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace zv
