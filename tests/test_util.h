/// \file test_util.h
/// \brief Shared fixtures: a tiny hand-written sales table with known
/// aggregates, so tests can assert exact visualization values.

#ifndef ZV_TESTS_TEST_UTIL_H_
#define ZV_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/predicate.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace zv::testing {

/// Builds the "sales" table used across tests:
///
/// year  product  location  sales  profit
/// ----  -------  --------  -----  ------
/// 2014  chair    US        10     5
/// 2015  chair    US        20     6
/// 2016  chair    US        30     7      <- chair/US rises
/// 2014  chair    UK        30     3
/// 2015  chair    UK        20     2
/// 2016  chair    UK        10     1      <- chair/UK falls
/// 2014  desk     US        50     9
/// 2015  desk     US        40     8
/// 2016  desk     US        30     7      <- desk/US falls
/// 2014  desk     UK        10     2
/// 2015  desk     UK        25     4
/// 2016  desk     UK        40     6      <- desk/UK rises
/// 2014  stapler  US        11     5
/// 2015  stapler  US        21     7
/// 2016  stapler  US        32     9      <- stapler/US rises (like chair)
inline std::shared_ptr<Table> MakeTinySales() {
  Schema schema({
      {"year", ColumnType::kCategorical},
      {"product", ColumnType::kCategorical},
      {"location", ColumnType::kCategorical},
      {"sales", ColumnType::kDouble},
      {"profit", ColumnType::kDouble},
  });
  TableBuilder b("sales", schema);
  struct Row {
    int year;
    const char* product;
    const char* location;
    double sales;
    double profit;
  };
  const Row rows[] = {
      {2014, "chair", "US", 10, 5},   {2015, "chair", "US", 20, 6},
      {2016, "chair", "US", 30, 7},   {2014, "chair", "UK", 30, 3},
      {2015, "chair", "UK", 20, 2},   {2016, "chair", "UK", 10, 1},
      {2014, "desk", "US", 50, 9},    {2015, "desk", "US", 40, 8},
      {2016, "desk", "US", 30, 7},    {2014, "desk", "UK", 10, 2},
      {2015, "desk", "UK", 25, 4},    {2016, "desk", "UK", 40, 6},
      {2014, "stapler", "US", 11, 5}, {2015, "stapler", "US", 21, 7},
      {2016, "stapler", "US", 32, 9},
  };
  for (const Row& r : rows) {
    EXPECT_TRUE(b.AddRow({Value::Int(r.year), Value::Str(r.product),
                          Value::Str(r.location), Value::Double(r.sales),
                          Value::Double(r.profit)})
                    .ok());
  }
  return b.Finish();
}

/// Reference row selection for scanner tests: the ascending ids of the
/// rows satisfying `stmt`'s WHERE, found by testing its compiled predicate
/// on every row in one plain loop — no chunking, fusion, or bitmap code,
/// so it shares nothing with the scanners it checks beyond the predicate.
inline std::vector<uint32_t> ReferenceRows(const Table& table,
                                           const sql::SelectStatement& stmt) {
  std::optional<CompiledPredicate> pred;
  if (stmt.where != nullptr) {
    Result<CompiledPredicate> compiled =
        CompiledPredicate::Compile(table, *stmt.where);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled.ok()) return {};
    pred = std::move(compiled).value();
  }
  std::vector<uint32_t> rows;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (!pred.has_value() || pred->Test(row)) {
      rows.push_back(static_cast<uint32_t>(row));
    }
  }
  return rows;
}

#define ZV_ASSERT_OK(expr)                                       \
  do {                                                           \
    const auto& _st = (expr);                                    \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (0)

#define ZV_EXPECT_OK(expr)                                       \
  do {                                                           \
    const auto& _st = (expr);                                    \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (0)

#define ZV_ASSERT_OK_AND_ASSIGN(lhs, expr)                  \
  auto ZV_CONCAT_(_res, __LINE__) = (expr);                 \
  ASSERT_TRUE(ZV_CONCAT_(_res, __LINE__).ok())              \
      << ZV_CONCAT_(_res, __LINE__).status().ToString();    \
  lhs = std::move(ZV_CONCAT_(_res, __LINE__)).value();
#define ZV_CONCAT_IMPL_(a, b) a##b
#define ZV_CONCAT_(a, b) ZV_CONCAT_IMPL_(a, b)

}  // namespace zv::testing

#endif  // ZV_TESTS_TEST_UTIL_H_
