/// \file zql_roundtrip_test.cc
/// \brief Seeded property tests for the canonical-serialization contract
/// (src/zql/canonical.h) and the fingerprint identity built on it
/// (src/server/fingerprint.h): for randomly generated valid ZQL,
/// parse → CanonicalText reaches a fixed point in one step
/// (re-parse → re-serialize is byte-identical), whitespace respellings
/// outside quoted literals canonicalize to the same bytes and therefore
/// the same QueryFingerprint, and any semantic mutation (a threshold
/// digit, a set element, an axis attribute) moves the fingerprint.
/// Queries are assembled from parameterized templates covering every
/// clause family the parser accepts — name derivations, axis sets,
/// attribute arithmetic, Z-set algebra (|, &, \, complement, nesting),
/// multi-viz sets, binned specs, and argmin/argmax/argany processes with
/// nested reducers — so the generator is valid by construction while
/// still randomizing structure, not just literals.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/strings.h"
#include "server/fingerprint.h"
#include "zql/canonical.h"
#include "zql/executor.h"
#include "zql/parser.h"

namespace zv::zql {
namespace {

/// One random spelling drawn from each clause family. `rng` drives every
/// choice, so a fixed seed reproduces the exact query sequence.
class QueryGen {
 public:
  explicit QueryGen(uint32_t seed) : rng_(seed) {}

  /// A draw in [lo, lo + mod) narrowed to unsigned — mt19937 yields
  /// unsigned long on LP64, which does not match the %u conversions below.
  unsigned U(unsigned lo, unsigned mod) {
    return lo + static_cast<unsigned>(rng_() % mod);
  }

  std::string NextQuery() {
    switch (rng_() % 6) {
      case 0:  // single output row, every cell populated
        return StrFormat("*f1 | %s | %s | %s | %s | %s |\n", X().c_str(),
                         Y().c_str(), Z("v1").c_str(), Constraint().c_str(),
                         Viz().c_str());
      case 1:  // the paper's similarity-search shape: declare, score, plot
        return StrFormat(
            "f1 | 'year' | %s | %s | | |\n"
            "f2 | 'year' | %s | 'product'.'chair' | | | %s\n"
            "*f3 | 'year' | 'profit' | v2 | | %s |\n",
            Y().c_str(), Z("v1").c_str(), Y().c_str(), Process().c_str(),
            Viz().c_str());
      case 2:  // name derivation off a scored row
        return StrFormat(
            "f1 | %s | %s | %s | %s | | v2 <- argmax_v1[k=%u] T(f1)\n"
            "*f2=f1[%u:%u] | | | | | |\n",
            X().c_str(), Y().c_str(), Z("v1").c_str(), Constraint().c_str(),
            U(2, 8), U(0, 2), U(2, 3));
      case 3:  // axis variables: iterate x and y attribute sets
        return StrFormat(
            "f1 | x1 <- {%s} | y1 <- {'sales', 'profit'} | %s | | | "
            "x2, y2 <- argmin_x1,y1[k=%u] D(f1, f1)\n"
            "*f2 | x2 | y2 | 'product'.'chair' | | %s |\n",
            rng_() % 2 ? "'year', 'month'" : "'year'", Z("v1").c_str(),
            U(1, 5), Viz().c_str());
      case 4:  // two independent scored rows in one query
        return StrFormat(
            "f1 | 'year' | %s | %s | | | (v2 <- argmax_v1[k=%u] T(f1)), "
            "(v3 <- argmin_v1[k=%u] T(f1))\n"
            "*f2 | 'year' | %s | v2 | | |\n"
            "*f3 | 'year' | %s | v3 | | |\n",
            Y().c_str(), Z("v1").c_str(), U(1, 4), U(1, 4),
            Y().c_str(), Y().c_str());
      default:  // representatives / filtered process forms
        return StrFormat(
            "f1 | %s | %s | %s | %s | %s | %s\n"
            "*f2 | %s | %s | v2 | | |\n",
            X().c_str(), Y().c_str(), Z("v1").c_str(), Constraint().c_str(),
            Viz().c_str(),
            rng_() % 2
                ? StrFormat("v2 <- R(%u, v1, f1)", U(2, 8)).c_str()
                : StrFormat("v2 <- argany_v1[t > %u] T(f1)", U(0, 50))
                      .c_str(),
            X().c_str(), Y().c_str());
    }
  }

  std::mt19937& rng() { return rng_; }

 private:
  std::string X() {
    const char* const xs[] = {"'year'", "'month'", "'sales'"};
    return xs[rng_() % 3];
  }
  std::string Y() {
    switch (rng_() % 3) {
      case 0:
        return "'sales'";
      case 1:
        return "'profit'";
      default:
        return "'profit' + 'sales'";  // attribute arithmetic
    }
  }
  std::string Z(const char* var) {
    switch (rng_() % 6) {
      case 0:
        return StrFormat("%s <- 'product'.*", var);
      case 1:
        return "'location'.'US'";
      case 2:
        return StrFormat("%s <- 'location'.{'US', 'UK'}", var);
      case 3:
        return StrFormat("%s <- 'product'.(* - 'chair')", var);
      case 4:
        return StrFormat("%s <- ('product'.{'chair','desk'} | 'location'.'US')",
                         var);
      default:
        return StrFormat("%s <- (* \\ {'year', 'sales'}).*", var);
    }
  }
  std::string Constraint() {
    const char* const cs[] = {"", "location='US'", "sales > 100",
                              "location='US' AND sales > 250"};
    return cs[rng_() % 4];
  }
  std::string Viz() {
    switch (rng_() % 5) {
      case 0:
        return "";
      case 1:
        return "bar.(y=agg('sum'))";
      case 2:
        return StrFormat("bar.(x=bin(%u), y=agg('sum'))", U(5, 40));
      case 3:
        return "t1 <- {bar, dotplot}.(x=bin(20), y=agg('sum'))";
      default:
        return "line.(y=agg('avg'))";
    }
  }
  std::string Process() {
    switch (rng_() % 3) {
      case 0:
        return StrFormat("v2 <- argmin_v1[k=%u] D(f1, f2)", U(1, 10));
      case 1:
        return StrFormat("v2 <- argmax_v1[k=%u] D(f1, f2)", U(1, 10));
      default:
        return "v2 <- argmin_v1[k=inf] D(f1, f2)";
    }
  }

  std::mt19937 rng_;
};

/// Random whitespace respelling that cannot change meaning: every run of
/// spaces outside single-quoted literals stretches to 1–3 spaces, and
/// lines gain random leading indentation. Quoted literals pass verbatim
/// (whitespace inside them is content, not formatting).
std::string PerturbWhitespace(const std::string& text, std::mt19937* rng) {
  std::string out;
  bool in_quote = false;
  bool at_line_start = true;
  for (char c : text) {
    if (at_line_start && c != '\n' && (*rng)() % 2 == 0) {
      out.append(1 + (*rng)() % 3, ' ');
    }
    at_line_start = false;
    if (c == '\'') in_quote = !in_quote;
    if (c == ' ' && !in_quote) {
      out.append(1 + (*rng)() % 3, ' ');
    } else {
      out.push_back(c);
    }
    if (c == '\n') at_line_start = true;
  }
  return out;
}

std::string Fingerprint(const std::string& canonical) {
  return server::QueryFingerprint("sales", 1, "roaring", OptLevel::kInterTask,
                                  canonical, "");
}

TEST(ZqlRoundtripTest, CanonicalTextIsAFixedPoint) {
  QueryGen gen(20160714);
  for (int i = 0; i < 300; ++i) {
    const std::string text = gen.NextQuery();
    Result<ZqlQuery> q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString() << "\n" << text;
    const std::string c1 = CanonicalText(q.value());
    Result<ZqlQuery> q2 = ParseQuery(c1);
    ASSERT_TRUE(q2.ok()) << "canonical text failed to re-parse: "
                         << q2.status().ToString() << "\n"
                         << c1;
    const std::string c2 = CanonicalText(q2.value());
    EXPECT_EQ(c1, c2) << "not idempotent for:\n" << text;
  }
}

TEST(ZqlRoundtripTest, WhitespaceRespellingsShareOneFingerprint) {
  QueryGen gen(424242);
  for (int i = 0; i < 200; ++i) {
    const std::string text = gen.NextQuery();
    Result<ZqlQuery> q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString() << "\n" << text;
    const std::string c1 = CanonicalText(q.value());
    const std::string respelled = PerturbWhitespace(text, &gen.rng());
    Result<ZqlQuery> q2 = ParseQuery(respelled);
    ASSERT_TRUE(q2.ok()) << q2.status().ToString() << "\n" << respelled;
    EXPECT_EQ(c1, CanonicalText(q2.value()))
        << "respelling changed canonical bytes:\n"
        << text << "\nvs\n"
        << respelled;
    EXPECT_EQ(Fingerprint(c1), Fingerprint(CanonicalText(q2.value())));
  }
}

TEST(ZqlRoundtripTest, SemanticMutationsMoveTheFingerprint) {
  // Pairs that differ in exactly one semantic atom. Each must parse and
  // land on a different canonical text, hence a different fingerprint.
  const char* const pairs[][2] = {
      {"*f1 | 'year' | 'sales' | v1 <- 'product'.* | | | "
       "v2 <- argmin_v1[k=10] D(f1, f1)",
       "*f1 | 'year' | 'sales' | v1 <- 'product'.* | | | "
       "v2 <- argmin_v1[k=11] D(f1, f1)"},
      {"*f1 | 'year' | 'sales' | 'location'.'US' | | bar.(x=bin(20)) |",
       "*f1 | 'year' | 'sales' | 'location'.'US' | | bar.(x=bin(21)) |"},
      {"*f1 | 'year' | 'sales' | v1 <- 'location'.{'US', 'UK'} | | |",
       "*f1 | 'year' | 'sales' | v1 <- 'location'.{'US', 'FR'} | | |"},
      {"*f1 | 'year' | 'sales' | 'location'.'US' | sales > 100 | |",
       "*f1 | 'year' | 'sales' | 'location'.'US' | sales > 101 | |"},
      // A split operator is a SQL parse error, not the joined one.
      {"*f1 | 'year' | 'sales' | 'location'.'US' | sales <= 100 | |",
       "*f1 | 'year' | 'sales' | 'location'.'US' | sales < = 100 | |"},
      {"*f1 | 'year' | 'sales' | 'location'.'US' | | |",
       "*f1 | 'month' | 'sales' | 'location'.'US' | | |"},
  };
  for (const auto& pair : pairs) {
    Result<ZqlQuery> a = ParseQuery(pair[0]);
    Result<ZqlQuery> b = ParseQuery(pair[1]);
    ASSERT_TRUE(a.ok()) << a.status().ToString() << "\n" << pair[0];
    ASSERT_TRUE(b.ok()) << b.status().ToString() << "\n" << pair[1];
    const std::string ca = CanonicalText(a.value());
    const std::string cb = CanonicalText(b.value());
    EXPECT_NE(ca, cb) << pair[0] << "\nvs\n" << pair[1];
    EXPECT_NE(Fingerprint(ca), Fingerprint(cb));
  }
}

TEST(ZqlRoundtripTest, FingerprintSeparatesEveryKeyComponent) {
  const std::string canonical = [] {
    Result<ZqlQuery> q = ParseQuery(
        "*f1 | 'year' | 'sales' | v1 <- 'product'.* | | bar.(y=agg('sum')) "
        "|");
    EXPECT_TRUE(q.ok());
    return CanonicalText(q.value());
  }();
  const std::string base = server::QueryFingerprint(
      "sales", 1, "roaring", OptLevel::kInterTask, canonical, "");
  EXPECT_NE(base, server::QueryFingerprint("census", 1, "roaring",
                                           OptLevel::kInterTask, canonical,
                                           ""));
  EXPECT_NE(base, server::QueryFingerprint("sales", 2, "roaring",
                                           OptLevel::kInterTask, canonical,
                                           ""));
  EXPECT_NE(base, server::QueryFingerprint("sales", 1, "scan",
                                           OptLevel::kInterTask, canonical,
                                           ""));
  EXPECT_NE(base, server::QueryFingerprint("sales", 1, "roaring",
                                           OptLevel::kNoOpt, canonical, ""));
  EXPECT_NE(base, server::QueryFingerprint("sales", 1, "roaring",
                                           OptLevel::kInterTask, canonical,
                                           "user-input-hash"));
}

}  // namespace
}  // namespace zv::zql
