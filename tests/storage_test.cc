#include <gtest/gtest.h>

#include "storage/table.h"
#include "tests/test_util.h"

namespace zv {
namespace {

TEST(SchemaTest, FindAndNames) {
  Schema s({{"a", ColumnType::kCategorical}, {"b", ColumnType::kDouble}});
  EXPECT_EQ(s.Find("a"), 0);
  EXPECT_EQ(s.Find("b"), 1);
  EXPECT_EQ(s.Find("c"), -1);
  EXPECT_TRUE(s.Has("a"));
  EXPECT_EQ(s.ColumnNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(TableBuilderTest, DictionaryEncoding) {
  Schema s({{"color", ColumnType::kCategorical}});
  TableBuilder b("t", s);
  ZV_ASSERT_OK(b.AddRow({Value::Str("red")}));
  ZV_ASSERT_OK(b.AddRow({Value::Str("blue")}));
  ZV_ASSERT_OK(b.AddRow({Value::Str("red")}));
  auto t = b.Finish();
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->DictSize(0), 2u);
  EXPECT_EQ(t->Code(0, 0), t->Code(2, 0));
  EXPECT_NE(t->Code(0, 0), t->Code(1, 0));
  EXPECT_EQ(t->DictValue(0, t->Code(1, 0)), Value::Str("blue"));
  EXPECT_EQ(t->LookupCode(0, Value::Str("red")), t->Code(0, 0));
  EXPECT_EQ(t->LookupCode(0, Value::Str("green")), -1);
}

TEST(TableBuilderTest, IntValuedDictionary) {
  Schema s({{"year", ColumnType::kCategorical}});
  TableBuilder b("t", s);
  ZV_ASSERT_OK(b.AddRow({Value::Int(2015)}));
  ZV_ASSERT_OK(b.AddRow({Value::Int(2016)}));
  auto t = b.Finish();
  EXPECT_EQ(t->ValueAt(0, 0), Value::Int(2015));
  EXPECT_DOUBLE_EQ(t->NumericAt(1, 0), 2016.0);
}

TEST(TableBuilderTest, DictionaryKeepsValueOrder) {
  Schema s({{"k", ColumnType::kCategorical}});
  TableBuilder b("t", s);
  // Inserted out of order, mixing types: 2.5 < 3 < 10 < "a" < "b".
  for (const Value& v : {Value::Int(10), Value::Str("b"), Value::Double(2.5),
                         Value::Str("a"), Value::Int(3)}) {
    ZV_ASSERT_OK(b.AddRow({v}));
  }
  auto t = b.Finish();
  EXPECT_TRUE(t->DictOrderStrict(0));
  const std::vector<int32_t>& by_rank = t->DictCodesByRank(0);
  ASSERT_EQ(by_rank.size(), 5u);
  for (size_t r = 0; r < by_rank.size(); ++r) {
    EXPECT_EQ(t->DictRanks(0)[static_cast<size_t>(by_rank[r])],
              static_cast<int32_t>(r));
    if (r > 0) {
      EXPECT_LT(t->DictValue(0, by_rank[r - 1]), t->DictValue(0, by_rank[r]));
    }
  }
  EXPECT_EQ(t->DictValue(0, by_rank[0]), Value::Double(2.5));
  EXPECT_EQ(t->DictValue(0, by_rank[4]), Value::Str("b"));
}

TEST(TableBuilderTest, LookupCodeIsNumericAware) {
  Schema s({{"year", ColumnType::kCategorical}, {"m", ColumnType::kDouble}});
  TableBuilder b("t", s);
  for (int64_t y : {2016, 2012, 2014}) {
    ZV_ASSERT_OK(b.AddRow({Value::Int(y), Value::Double(1)}));
  }
  auto t = b.Finish();
  // present, numerically equal, absent, and a string that is no number
  EXPECT_EQ(t->LookupCode(0, Value::Int(2012)), t->Code(1, 0));
  EXPECT_EQ(t->LookupCode(0, Value::Double(2014.0)), t->Code(2, 0));
  EXPECT_EQ(t->LookupCode(0, Value::Int(2013)), -1);
  EXPECT_EQ(t->LookupCode(0, Value::Double(2012.5)), -1);
  EXPECT_EQ(t->LookupCode(0, Value::Str("2012")), -1);
  EXPECT_EQ(t->LookupCode(1, Value::Double(1)), -1);  // measure column
}

TEST(TableBuilderTest, TypeChecking) {
  Schema s({{"m", ColumnType::kDouble}});
  TableBuilder b("t", s);
  EXPECT_FALSE(b.AddRow({Value::Str("oops")}).ok());
  ZV_EXPECT_OK(b.AddRow({Value::Int(3)}));  // ints coerce to double
  auto t = b.Finish();
  EXPECT_DOUBLE_EQ(t->DoubleColumn(0)[0], 3.0);
}

TEST(TableBuilderTest, ArityChecking) {
  Schema s({{"a", ColumnType::kCategorical}, {"b", ColumnType::kDouble}});
  TableBuilder b("t", s);
  EXPECT_FALSE(b.AddRow({Value::Str("x")}).ok());
}

TEST(TableTest, ValueAtAllTypes) {
  auto t = testing::MakeTinySales();
  EXPECT_EQ(t->ValueAt(0, 0), Value::Int(2014));
  EXPECT_EQ(t->ValueAt(0, 1), Value::Str("chair"));
  EXPECT_EQ(t->ValueAt(0, 3), Value::Double(10));
  EXPECT_GT(t->MemoryBytes(), 0u);
}

TEST(CatalogTest, AddGetDuplicate) {
  Catalog c;
  ZV_ASSERT_OK(c.AddTable(testing::MakeTinySales()));
  ZV_ASSERT_OK_AND_ASSIGN(auto t, c.GetTable("sales"));
  EXPECT_EQ(t->name(), "sales");
  EXPECT_FALSE(c.AddTable(testing::MakeTinySales()).ok());
  EXPECT_FALSE(c.GetTable("nope").ok());
  EXPECT_EQ(c.TableNames().size(), 1u);
}

}  // namespace
}  // namespace zv
