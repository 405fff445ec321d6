#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/predicate.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace zv {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = testing::MakeTinySales();
    ZV_ASSERT_OK(scan_.RegisterTable(table));
    ZV_ASSERT_OK(roaring_.RegisterTable(table));
  }
  ScanDatabase scan_;
  RoaringDatabase roaring_;
};

TEST_F(EngineTest, SimpleAggregation) {
  const char* q =
      "SELECT year, SUM(sales) FROM sales WHERE product = 'chair' AND "
      "location = 'US' GROUP BY year ORDER BY year";
  for (Database* db : std::vector<Database*>{&scan_, &roaring_}) {
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, db->ExecuteSql(q));
    ASSERT_EQ(rs.num_rows(), 3u) << db->name();
    EXPECT_EQ(rs.rows[0][0], Value::Int(2014));
    EXPECT_DOUBLE_EQ(rs.rows[0][1].AsDouble(), 10);
    EXPECT_DOUBLE_EQ(rs.rows[1][1].AsDouble(), 20);
    EXPECT_DOUBLE_EQ(rs.rows[2][1].AsDouble(), 30);
  }
}

TEST_F(EngineTest, AllAggregateFunctions) {
  const char* q =
      "SELECT product, SUM(sales), AVG(sales), MIN(sales), MAX(sales), "
      "COUNT(*) FROM sales GROUP BY product ORDER BY product";
  for (Database* db : std::vector<Database*>{&scan_, &roaring_}) {
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, db->ExecuteSql(q));
    ASSERT_EQ(rs.num_rows(), 3u);
    // chair: sales 10,20,30,30,20,10.
    EXPECT_EQ(rs.rows[0][0], Value::Str("chair"));
    EXPECT_DOUBLE_EQ(rs.rows[0][1].AsDouble(), 120);
    EXPECT_DOUBLE_EQ(rs.rows[0][2].AsDouble(), 20);
    EXPECT_DOUBLE_EQ(rs.rows[0][3].AsDouble(), 10);
    EXPECT_DOUBLE_EQ(rs.rows[0][4].AsDouble(), 30);
    EXPECT_EQ(rs.rows[0][5], Value::Int(6));
  }
}

TEST_F(EngineTest, GlobalAggregateNoGroupBy) {
  for (Database* db : std::vector<Database*>{&scan_, &roaring_}) {
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs,
                            db->ExecuteSql("SELECT COUNT(*) FROM sales"));
    ASSERT_EQ(rs.num_rows(), 1u);
    EXPECT_EQ(rs.rows[0][0], Value::Int(15));
  }
}

TEST_F(EngineTest, Projection) {
  const char* q =
      "SELECT year, sales FROM sales WHERE product = 'stapler' ORDER BY year";
  for (Database* db : std::vector<Database*>{&scan_, &roaring_}) {
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, db->ExecuteSql(q));
    ASSERT_EQ(rs.num_rows(), 3u);
    EXPECT_DOUBLE_EQ(rs.rows[2][1].AsDouble(), 32);
  }
}

TEST_F(EngineTest, InPredicate) {
  const char* q =
      "SELECT product, SUM(sales) FROM sales WHERE product IN "
      "('chair','stapler') GROUP BY product ORDER BY product";
  for (Database* db : std::vector<Database*>{&scan_, &roaring_}) {
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, db->ExecuteSql(q));
    ASSERT_EQ(rs.num_rows(), 2u);
    EXPECT_EQ(rs.rows[0][0], Value::Str("chair"));
    EXPECT_EQ(rs.rows[1][0], Value::Str("stapler"));
  }
}

TEST_F(EngineTest, NotEqualAndOr) {
  const char* q =
      "SELECT product, COUNT(*) FROM sales WHERE product != 'desk' OR "
      "location = 'UK' GROUP BY product ORDER BY product";
  for (Database* db : std::vector<Database*>{&scan_, &roaring_}) {
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, db->ExecuteSql(q));
    ASSERT_EQ(rs.num_rows(), 3u);
    EXPECT_EQ(rs.rows[1][0], Value::Str("desk"));
    EXPECT_EQ(rs.rows[1][1], Value::Int(3));  // only the UK desks
  }
}

TEST_F(EngineTest, NumericPredicateResidual) {
  // sales > 25 touches an un-indexed measure column: the roaring backend
  // must fall back to residual filtering.
  const char* q =
      "SELECT product, COUNT(*) FROM sales WHERE sales > 25 AND location = "
      "'US' GROUP BY product ORDER BY product";
  ZV_ASSERT_OK_AND_ASSIGN(ResultSet a, scan_.ExecuteSql(q));
  ZV_ASSERT_OK_AND_ASSIGN(ResultSet b, roaring_.ExecuteSql(q));
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.rows[i], b.rows[i]);
  }
  // chair/US has one >25 (30); desk/US has 50,40,30; stapler/US has 32.
  EXPECT_EQ(a.rows[0][1], Value::Int(1));
  EXPECT_EQ(a.rows[1][1], Value::Int(3));
  EXPECT_EQ(a.rows[2][1], Value::Int(1));
}

TEST_F(EngineTest, BetweenOnNumeric) {
  const char* q = "SELECT COUNT(*) FROM sales WHERE sales BETWEEN 20 AND 30";
  ZV_ASSERT_OK_AND_ASSIGN(ResultSet a, scan_.ExecuteSql(q));
  ZV_ASSERT_OK_AND_ASSIGN(ResultSet b, roaring_.ExecuteSql(q));
  EXPECT_EQ(a.rows[0][0], b.rows[0][0]);
  // In [20,30]: chair/US 20,30; chair/UK 30,20; desk/US 30; desk/UK 25;
  // stapler/US 21.
  EXPECT_EQ(a.rows[0][0], Value::Int(7));
}

TEST_F(EngineTest, LimitApplies) {
  const char* q = "SELECT year, SUM(sales) FROM sales GROUP BY year ORDER BY "
                  "year LIMIT 2";
  ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, scan_.ExecuteSql(q));
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST_F(EngineTest, OrderByDescending) {
  const char* q =
      "SELECT year, SUM(sales) FROM sales GROUP BY year ORDER BY year DESC";
  ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, roaring_.ExecuteSql(q));
  EXPECT_EQ(rs.rows[0][0], Value::Int(2016));
}

TEST_F(EngineTest, UnknownColumnFails) {
  EXPECT_FALSE(scan_.ExecuteSql("SELECT nope FROM sales").ok());
  EXPECT_FALSE(
      scan_.ExecuteSql("SELECT year FROM sales WHERE nope = 1").ok());
  EXPECT_FALSE(roaring_.ExecuteSql("SELECT nope FROM sales").ok());
}

TEST_F(EngineTest, UnknownTableFails) {
  EXPECT_FALSE(scan_.ExecuteSql("SELECT a FROM missing").ok());
}

TEST_F(EngineTest, BareColumnMustBeGrouped) {
  EXPECT_FALSE(
      scan_.ExecuteSql("SELECT product, SUM(sales) FROM sales GROUP BY year")
          .ok());
}

TEST_F(EngineTest, CountersTrackQueriesAndRequests) {
  scan_.ResetCounters();
  ZV_ASSERT_OK(scan_.ExecuteSql("SELECT COUNT(*) FROM sales").status());
  ZV_ASSERT_OK(scan_.ExecuteSql("SELECT COUNT(*) FROM sales").status());
  EXPECT_EQ(scan_.queries_executed(), 2u);
  EXPECT_EQ(scan_.requests_made(), 2u);
}

TEST_F(EngineTest, RoaringIndexBytesNonZero) {
  EXPECT_GT(roaring_.IndexBytes("sales"), 0u);
  EXPECT_EQ(roaring_.IndexBytes("missing"), 0u);
}

// --- randomized equivalence: both backends must agree exactly ---------------

// --- dictionary-coded predicates and rank-ordered output --------------------

/// A table whose dictionaries are inserted out of value order: product10
/// is code 0 but sorts before product2; years arrive 2016, 2014, 2015; and
/// `tier` mixes ints, a double and strings (2.5 < 3 < 10 < 'a' < 'b').
class DictionaryOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Value products[] = {Value::Str("product10"), Value::Str("product2"),
                              Value::Str("product1"), Value::Str("product33"),
                              Value::Str("product3")};
    const Value years[] = {Value::Int(2016), Value::Int(2014),
                           Value::Int(2015)};
    const Value tiers[] = {Value::Int(10), Value::Double(2.5), Value::Str("b"),
                           Value::Str("a"), Value::Int(3)};
    TableBuilder b("t", Schema({{"product", ColumnType::kCategorical},
                                {"year", ColumnType::kCategorical},
                                {"tier", ColumnType::kCategorical},
                                {"sales", ColumnType::kDouble}}));
    for (int i = 0; i < 300; ++i) {
      ZV_ASSERT_OK(b.AddRow({products[i % 5], years[(i / 5) % 3],
                             tiers[(i * 7) % 5],
                             Value::Double((i * 37 % 101) / 4.0)}));
    }
    table_ = b.Finish();
    ZV_ASSERT_OK(scan_.RegisterTable(table_));
    ZV_ASSERT_OK(roaring_.RegisterTable(table_));
  }

  std::vector<Database*> Backends() { return {&scan_, &roaring_}; }

  std::shared_ptr<Table> table_;
  ScanDatabase scan_;
  RoaringDatabase roaring_;
};

TEST_F(DictionaryOrderTest, EqualityAndInMatchBruteForce) {
  const size_t product = 0, year = 1, tier = 2;
  struct Case {
    std::string where;
    size_t col;
    std::vector<Value> accepted;  // the row's value must equal one of these
    bool negate = false;
  };
  const std::vector<Case> cases = {
      // numeric-aware: a double literal matches an int dictionary entry
      {"year IN (2014.0, 2015)", year, {Value::Int(2014), Value::Int(2015)}},
      {"year = 2016.0", year, {Value::Int(2016)}},
      // duplicates and values absent from the dictionary
      {"product IN ('product1', 'nosuch', 'product1', 'product33')",
       product,
       {Value::Str("product1"), Value::Str("product33")}},
      {"product IN ('nosuch')", product, {}},
      {"year IN ('2014')", year, {}},  // a string never equals a number
      {"product NOT IN ('product1', 'product2')",
       product,
       {Value::Str("product1"), Value::Str("product2")},
       true},
      {"product <> 'product3'", product, {Value::Str("product3")}, true},
      // over half the dictionary: Roaring ORs the complement instead
      {"product IN ('product10', 'product2', 'product1', 'product3')",
       product,
       {Value::Str("product10"), Value::Str("product2"),
        Value::Str("product1"), Value::Str("product3")}},
      // mixed-type dictionary
      {"tier IN (2.5, 10.0, 'a')",
       tier,
       {Value::Double(2.5), Value::Int(10), Value::Str("a")}},
      {"tier = 3", tier, {Value::Int(3)}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.where);
    int64_t expected = 0;
    for (size_t r = 0; r < table_->num_rows(); ++r) {
      const Value v = table_->ValueAt(r, c.col);
      bool hit = false;
      for (const Value& a : c.accepted) hit |= v == a;
      expected += hit != c.negate;
    }
    for (Database* db : Backends()) {
      ZV_ASSERT_OK_AND_ASSIGN(
          ResultSet rs,
          db->ExecuteSql("SELECT COUNT(*) FROM t WHERE " + c.where));
      ASSERT_EQ(rs.num_rows(), 1u) << db->name();
      EXPECT_EQ(rs.rows[0][0].AsInt(), expected) << db->name();
    }
  }
}

TEST_F(DictionaryOrderTest, RankOrderMatchesValueSort) {
  struct Case {
    std::string base;  // no ORDER BY / LIMIT
    std::vector<std::pair<std::string, bool>> order;  // column, descending
    int64_t limit = -1;
  };
  const std::string by_product_year =
      "SELECT product, year, SUM(sales), COUNT(*) FROM t "
      "GROUP BY product, year";
  const std::vector<Case> cases = {
      {by_product_year, {{"product", false}, {"year", false}}},
      {by_product_year, {{"product", true}, {"year", false}}},
      // a subset of the group keys: ties keep code order
      {by_product_year, {{"year", false}}},
      {by_product_year, {{"year", true}}},
      // ORDER BY + LIMIT: the partial-sort path (4 <= 15 / 2) and the
      // stable-sort path (10 > 15 / 2)
      {by_product_year, {{"year", true}}, 4},
      {by_product_year, {{"product", false}}, 10},
      {by_product_year, {{"year", true}, {"product", true}}, 0},
      // a repeated key never breaks a tie
      {by_product_year, {{"product", false}, {"product", true}}},
      // select order differs from group order
      {"SELECT year, product, MAX(sales) FROM t GROUP BY product, year",
       {{"year", false}, {"product", false}}},
      // mixed-type dictionary
      {"SELECT tier, year, COUNT(*) FROM t GROUP BY tier, year",
       {{"tier", true}, {"year", false}}},
      {"SELECT tier, COUNT(*) FROM t GROUP BY tier", {{"tier", false}}, 3},
  };
  for (const Case& c : cases) {
    std::string sql = c.base + " ORDER BY ";
    for (size_t i = 0; i < c.order.size(); ++i) {
      sql += (i ? ", " : "") + c.order[i].first +
             (c.order[i].second ? " DESC" : "");
    }
    if (c.limit >= 0) sql += " LIMIT " + std::to_string(c.limit);
    SCOPED_TRACE(sql);
    for (Database* db : Backends()) {
      // Reference: the unordered (key-ordered) rows, stable-sorted by
      // Value::Compare and cut to the limit.
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet expected, db->ExecuteSql(c.base));
      std::vector<std::pair<int, bool>> keys;
      for (const auto& [col, desc] : c.order) {
        keys.emplace_back(expected.Find(col), desc);
      }
      std::stable_sort(expected.rows.begin(), expected.rows.end(),
                       [&keys](const std::vector<Value>& a,
                               const std::vector<Value>& b) {
                         for (const auto& [idx, desc] : keys) {
                           const int cmp = a[static_cast<size_t>(idx)].Compare(
                               b[static_cast<size_t>(idx)]);
                           if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
                         }
                         return false;
                       });
      if (c.limit >= 0 &&
          expected.rows.size() > static_cast<size_t>(c.limit)) {
        expected.rows.resize(static_cast<size_t>(c.limit));
      }
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, db->ExecuteSql(sql));
      ASSERT_EQ(rs.num_rows(), expected.num_rows()) << db->name();
      for (size_t i = 0; i < rs.num_rows(); ++i) {
        ASSERT_EQ(rs.rows[i].size(), expected.rows[i].size());
        for (size_t j = 0; j < rs.rows[i].size(); ++j) {
          // ToString also tells Int(2014) from Double(2014.0).
          EXPECT_EQ(rs.rows[i][j].ToString(), expected.rows[i][j].ToString())
              << db->name() << " row " << i << " col " << j;
        }
      }
    }
  }
}

TEST(EngineEquivalenceTest, RandomQueriesAgree) {
  SalesDataOptions opts;
  opts.num_rows = 20000;
  opts.num_products = 20;
  auto table = MakeSalesTable(opts);
  ScanDatabase scan;
  RoaringDatabase roaring;
  ZV_ASSERT_OK(scan.RegisterTable(table));
  ZV_ASSERT_OK(roaring.RegisterTable(table));

  Rng rng(123);
  const std::vector<std::string> group_cols = {"product", "year", "month",
                                               "country", "category"};
  const std::vector<std::string> measures = {"sales", "profit", "revenue"};
  for (int trial = 0; trial < 30; ++trial) {
    const std::string z = group_cols[rng.Uniform(group_cols.size())];
    std::string x = group_cols[rng.Uniform(group_cols.size())];
    if (x == z) x = "year";
    const std::string y = measures[rng.Uniform(measures.size())];
    std::string where;
    switch (rng.Uniform(4)) {
      case 0:
        where = " WHERE country = 'US'";
        break;
      case 1:
        where = " WHERE country != 'UK' AND size = 'small'";
        break;
      case 2:
        where = " WHERE sales > 100";
        break;
      default:
        break;
    }
    const std::string q = "SELECT " + x + ", SUM(" + y + "), " + z +
                          " FROM sales" + where + " GROUP BY " + x + ", " + z +
                          " ORDER BY " + z + ", " + x;
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet a, scan.ExecuteSql(q));
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet b, roaring.ExecuteSql(q));
    ASSERT_EQ(a.num_rows(), b.num_rows()) << q;
    for (size_t i = 0; i < a.num_rows(); ++i) {
      ASSERT_EQ(a.rows[i].size(), b.rows[i].size());
      for (size_t j = 0; j < a.rows[i].size(); ++j) {
        if (a.rows[i][j].is_numeric()) {
          EXPECT_NEAR(a.rows[i][j].AsDouble(), b.rows[i][j].AsDouble(),
                      1e-6 * (1 + std::abs(a.rows[i][j].AsDouble())))
              << q;
        } else {
          EXPECT_EQ(a.rows[i][j], b.rows[i][j]) << q;
        }
      }
    }
  }
}

/// Randomized differential test of row selection. Random AND/OR/NOT trees
/// over a double column holding NaN, an int column and two categorical
/// columns (strings; ints) run through both backends'
/// PrepareMultiChunkScan + ScanRange, alone and fused, on unaligned ranges
/// around the batch size, and must select exactly the rows the naive
/// oracle (testing::ReferenceMatches) selects.
class SelectionDifferentialTest : public ::testing::Test {
 protected:
  /// Spans two Roaring containers, so filtered scans cross one.
  static constexpr uint32_t kRows = 70000;
  static constexpr uint32_t kBatch = kPredicateBatchRows;

  void SetUp() override {
    TableBuilder b("t", Schema({{"d", ColumnType::kDouble},
                                {"i", ColumnType::kInt},
                                {"c", ColumnType::kCategorical},
                                {"y", ColumnType::kCategorical}}));
    Rng rng(17);
    for (uint32_t r = 0; r < kRows; ++r) {
      const double d = rng.Uniform(8) == 0
                           ? std::numeric_limits<double>::quiet_NaN()
                           : 0.5 * static_cast<double>(rng.UniformInt(-4, 20));
      ZV_ASSERT_OK(b.AddRow({Value::Double(d),
                             Value::Int(rng.UniformInt(-5, 20)),
                             Value::Str(kWords[rng.Uniform(kWords.size())]),
                             Value::Int(rng.UniformInt(2010, 2015))}));
    }
    table_ = b.Finish();
    ZV_ASSERT_OK(scan_.RegisterTable(table_));
    ZV_ASSERT_OK(roaring_.RegisterTable(table_));
  }

  static Value Number(Rng& rng) {
    switch (rng.Uniform(6)) {
      case 0:
        return Value::Int(rng.UniformInt(-5, 20));
      case 1:
        return Value::Double(std::numeric_limits<double>::quiet_NaN());
      case 2:
        return Value::Double(0.25 + 0.5 * static_cast<double>(
                                            rng.UniformInt(-4, 20)));
      default:
        return Value::Double(0.5 * static_cast<double>(rng.UniformInt(-4, 20)));
    }
  }

  static Value Word(Rng& rng) {
    switch (rng.Uniform(8)) {
      case 0:
        return Value::Str("blueberry");  // not in the dictionary
      case 1:
        return Value::Int(3);  // a number sorts before every string
      default:
        return Value::Str(kWords[rng.Uniform(kWords.size())]);
    }
  }

  static Value Year(Rng& rng) {
    switch (rng.Uniform(5)) {
      case 0:
        return Value::Double(2012.5);
      case 1:
        return Value::Str("2012");  // a string never equals a number
      case 2:
        return Value::Double(
            static_cast<double>(rng.UniformInt(2009, 2016)));
      default:
        return Value::Int(rng.UniformInt(2009, 2016));
    }
  }

  static std::unique_ptr<sql::Expr> RandomLeaf(Rng& rng) {
    static const char* const kColumns[] = {"d", "i", "c", "y"};
    static const char* const kPatterns[] = {"a%",  "%rr%", "_a%", "%e",
                                            "b_rry", "%",  ""};
    const std::string col = kColumns[rng.Uniform(4)];
    const auto constant = [&rng, &col] {
      return col == "c" ? Word(rng) : col == "y" ? Year(rng) : Number(rng);
    };
    switch (rng.Uniform(col == "c" ? 5 : 4)) {
      case 0:
      case 1:
        return sql::Expr::Compare(
            col, static_cast<sql::CompareOp>(rng.Uniform(6)), constant());
      case 2: {
        Value lo = constant();
        Value hi = constant();
        return sql::Expr::Between(col, std::move(lo), std::move(hi));
      }
      case 3: {
        std::vector<Value> list;
        for (uint64_t k = rng.Uniform(4); k > 0; --k) {
          list.push_back(constant());
        }
        auto in = sql::Expr::In(col, std::move(list));
        return rng.Uniform(3) == 0 ? sql::Expr::Not(std::move(in))
                                   : std::move(in);
      }
      default:
        return sql::Expr::Like(col, kPatterns[rng.Uniform(7)]);
    }
  }

  static std::unique_ptr<sql::Expr> RandomExpr(Rng& rng, int depth) {
    if (depth == 0 || rng.Uniform(3) == 0) return RandomLeaf(rng);
    if (rng.Uniform(4) == 0) {
      return sql::Expr::Not(RandomExpr(rng, depth - 1));
    }
    std::vector<std::unique_ptr<sql::Expr>> children;
    for (uint64_t k = 2 + rng.Uniform(2); k > 0; --k) {
      children.push_back(RandomExpr(rng, depth - 1));
    }
    return rng.Uniform(2) == 0 ? sql::Expr::And(std::move(children))
                               : sql::Expr::Or(std::move(children));
  }

  static sql::SelectStatement Statement(std::unique_ptr<sql::Expr> where) {
    sql::SelectStatement stmt;
    stmt.items = {{"*", sql::AggFunc::kCount}};
    stmt.table = "t";
    stmt.where = std::move(where);
    return stmt;
  }

  std::vector<uint32_t> Reference(const sql::SelectStatement& stmt,
                                  uint32_t begin, uint32_t end) const {
    std::vector<uint32_t> rows;
    for (uint32_t r = begin; r < end; ++r) {
      if (stmt.where == nullptr ||
          testing::ReferenceMatches(*table_, r, *stmt.where)) {
        rows.push_back(r);
      }
    }
    return rows;
  }

  /// Scans [begin, end) with every statement of `stmts` fused into one
  /// scanner per backend — the first half prepared together, the rest
  /// absorbed — and checks each statement's rows against the oracle.
  void CheckRange(const std::vector<sql::SelectStatement>& stmts,
                  uint32_t begin, uint32_t end) {
    SCOPED_TRACE(::testing::Message() << "rows [" << begin << ", " << end
                                      << ")");
    std::vector<const sql::SelectStatement*> head, tail;
    for (size_t i = 0; i < stmts.size(); ++i) {
      (i < (stmts.size() + 1) / 2 ? head : tail).push_back(&stmts[i]);
    }
    for (Database* db : {static_cast<Database*>(&scan_),
                         static_cast<Database*>(&roaring_)}) {
      ZV_ASSERT_OK_AND_ASSIGN(std::unique_ptr<MultiChunkScanner> scanner,
                              db->PrepareMultiChunkScan(head));
      if (!tail.empty()) {
        ZV_ASSERT_OK_AND_ASSIGN(std::unique_ptr<MultiChunkScanner> rest,
                                db->PrepareMultiChunkScan(tail));
        ASSERT_TRUE(scanner->Absorb(rest)) << db->name();
      }
      ASSERT_EQ(scanner->num_statements(), stmts.size());
      std::vector<std::vector<uint32_t>> outs(stmts.size());
      ZV_ASSERT_OK(scanner->ScanRange(begin, end, &outs));
      for (size_t i = 0; i < stmts.size(); ++i) {
        EXPECT_EQ(outs[i], Reference(stmts[i], begin, end))
            << db->name() << ": "
            << (stmts[i].where ? stmts[i].where->ToSql() : "no WHERE");
      }
    }
  }

  /// Every range size the batch walk treats differently, each at an
  /// unaligned start — one of them across the Roaring container edge.
  void CheckRanges(Rng& rng, const std::vector<sql::SelectStatement>& stmts) {
    const uint32_t sizes[] = {0, 1, kBatch - 1, kBatch, kBatch + 1,
                              3 * kBatch + 7};
    for (uint32_t size : sizes) {
      const uint32_t begin =
          rng.Uniform(4) == 0
              ? 65536 - size / 2 - 3
              : static_cast<uint32_t>(1 + rng.Uniform(kRows - size - 1));
      CheckRange(stmts, begin, begin + size);
    }
  }

  static inline const std::vector<std::string> kWords = {
      "apple", "apricot", "banana", "berry", "cherry", "date", "fig",
      "grape"};
  std::shared_ptr<Table> table_;
  ScanDatabase scan_;
  RoaringDatabase roaring_;
};

TEST_F(SelectionDifferentialTest, PinnedCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<sql::SelectStatement> pinned;
  const auto add = [&pinned](std::unique_ptr<sql::Expr> where) {
    pinned.push_back(Statement(std::move(where)));
  };
  using sql::CompareOp;
  using sql::Expr;
  // NaN satisfies only <>; NOT (d < 2) keeps NaN rows, d >= 2 does not.
  add(Expr::Compare("d", CompareOp::kNe, Value::Double(1.5)));
  add(Expr::Not(Expr::Compare("d", CompareOp::kLt, Value::Int(2))));
  add(Expr::Compare("d", CompareOp::kGe, Value::Int(2)));
  add(Expr::Compare("d", CompareOp::kNe, Value::Double(nan)));
  add(Expr::Compare("d", CompareOp::kEq, Value::Double(nan)));
  add(Expr::Between("d", Value::Double(-1), Value::Double(nan)));
  // Int columns compare as double.
  add(Expr::Compare("i", CompareOp::kGt, Value::Double(3.5)));
  add(Expr::In("i", {Value::Int(3), Value::Double(4.0), Value::Double(2.5)}));
  add(Expr::Between("i", Value::Double(2.5), Value::Int(7)));
  // Empty IN lists select nothing; NOT of one selects everything.
  add(Expr::In("d", {}));
  add(Expr::Not(Expr::In("i", {})));
  add(Expr::In("c", {}));
  add(Expr::Not(Expr::In("y", {})));
  add(Expr::In("d", {Value::Double(nan), Value::Double(1.5)}));
  // Empty connectives are their identities.
  add(Expr::And({}));
  add(Expr::Or({}));
  // Categorical leaves, alone and as the Roaring filter of a residual.
  add(Expr::Not(Expr::In("c", {Value::Str("apple"), Value::Str("fig")})));
  add(Expr::Like("c", "b%"));
  std::vector<std::unique_ptr<Expr>> both;
  both.push_back(Expr::Compare("c", CompareOp::kEq, Value::Str("cherry")));
  both.push_back(Expr::Compare("d", CompareOp::kLt, Value::Double(3)));
  add(Expr::And(std::move(both)));
  add(nullptr);

  // The data really holds NaN, so the first two differ.
  EXPECT_NE(Reference(pinned[1], 0, kRows), Reference(pinned[2], 0, kRows));
  Rng rng(5);
  for (const sql::SelectStatement& stmt : pinned) {
    std::vector<sql::SelectStatement> alone;
    alone.push_back(stmt);
    CheckRanges(rng, alone);
    CheckRange(alone, 0, kRows);
  }
  CheckRanges(rng, pinned);
}

TEST_F(SelectionDifferentialTest, RandomTreesAgree) {
  Rng rng(2024);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<sql::SelectStatement> stmts;
    stmts.push_back(Statement(RandomExpr(rng, 3)));
    CheckRanges(rng, stmts);
  }
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<sql::SelectStatement> stmts;
    for (uint64_t k = 2 + rng.Uniform(4); k > 0; --k) {
      stmts.push_back(
          Statement(rng.Uniform(5) == 0 ? nullptr : RandomExpr(rng, 3)));
    }
    CheckRanges(rng, stmts);
    if (trial % 10 == 0) CheckRange(stmts, 0, kRows);
  }
}

}  // namespace
}  // namespace zv
