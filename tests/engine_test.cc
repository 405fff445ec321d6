#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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

  scan_.ResetCounters();
  std::vector<sql::SelectStatement> batch;
  for (int i = 0; i < 5; ++i) {
    ZV_ASSERT_OK_AND_ASSIGN(auto st,
                            sql::ParseSelect("SELECT COUNT(*) FROM sales"));
    batch.push_back(std::move(st));
  }
  auto results = scan_.ExecuteBatch(batch);
  for (auto& r : results) ZV_EXPECT_OK(r.status());
  EXPECT_EQ(scan_.queries_executed(), 5u);
  EXPECT_EQ(scan_.requests_made(), 1u);
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

}  // namespace
}  // namespace zv
