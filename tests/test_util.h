/// \file test_util.h
/// \brief Shared fixtures: a tiny hand-written sales table with known
/// aggregates, so tests can assert exact visualization values, the naive
/// row-selection references (ReferenceRows, ReferenceDatabase) the
/// identity suites check the scanners against, and the reference fold
/// (ReferenceAggregate) they check aggregation against.

#ifndef ZV_TESTS_TEST_UTIL_H_
#define ZV_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/strings.h"
#include "engine/database.h"
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

/// SQL LIKE by direct recursion on the pattern: % matches any run, _ any
/// one character.
inline bool ReferenceLike(std::string_view s, std::string_view p) {
  if (p.empty()) return s.empty();
  if (p[0] == '%') {
    return ReferenceLike(s, p.substr(1)) ||
           (!s.empty() && ReferenceLike(s.substr(1), p));
  }
  return !s.empty() && (p[0] == '_' || p[0] == s[0]) &&
         ReferenceLike(s.substr(1), p.substr(1));
}

/// Whether row `row` satisfies `e`, evaluated the naive way: every leaf
/// reads its cell through Table::ValueAt, with no CompiledPredicate code.
/// Categorical leaves use Value's comparisons — the semantics
/// CategoricalAcceptSet specifies — and measure leaves compare doubles
/// with IEEE semantics (NaN satisfies only `<>`), an int cell read as
/// double. Value::Compare cannot serve the latter: it calls NaN equal to
/// everything.
inline bool ReferenceMatches(const Table& table, size_t row,
                             const sql::Expr& e) {
  using Kind = sql::Expr::Kind;
  using Op = sql::CompareOp;
  switch (e.kind) {
    case Kind::kAnd:
      for (const auto& child : e.children) {
        if (!ReferenceMatches(table, row, *child)) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& child : e.children) {
        if (ReferenceMatches(table, row, *child)) return true;
      }
      return false;
    case Kind::kNot:
      return !ReferenceMatches(table, row, *e.children.at(0));
    default:
      break;
  }
  const int col = table.schema().Find(e.column);
  EXPECT_GE(col, 0) << "unknown column " << e.column;
  if (col < 0) return false;
  const Value v = table.ValueAt(row, static_cast<size_t>(col));
  if (table.column_type(static_cast<size_t>(col)) ==
      ColumnType::kCategorical) {
    switch (e.kind) {
      case Kind::kCompare:
        switch (e.op) {
          case Op::kEq: return v == e.value;
          case Op::kNe: return v != e.value;
          case Op::kLt: return v < e.value;
          case Op::kLe: return v <= e.value;
          case Op::kGt: return v > e.value;
          case Op::kGe: return v >= e.value;
        }
        return false;
      case Kind::kIn:
        for (const Value& candidate : e.values) {
          if (v == candidate) return true;
        }
        return false;
      case Kind::kBetween:
        return v >= e.values[0] && v <= e.values[1];
      case Kind::kLike:
        return v.is_string() &&
               ReferenceLike(v.AsString(), e.value.AsString());
      default:
        ADD_FAILURE() << "unexpected leaf " << e.ToSql();
        return false;
    }
  }
  const double x = v.AsDouble();
  switch (e.kind) {
    case Kind::kCompare: {
      const double c = e.value.AsDouble();
      switch (e.op) {
        case Op::kEq: return x == c;
        case Op::kNe: return x != c;
        case Op::kLt: return x < c;
        case Op::kLe: return x <= c;
        case Op::kGt: return x > c;
        case Op::kGe: return x >= c;
      }
      return false;
    }
    case Kind::kIn:
      for (const Value& candidate : e.values) {
        if (x == candidate.AsDouble()) return true;
      }
      return false;
    case Kind::kBetween:
      return x >= e.values[0].AsDouble() && x <= e.values[1].AsDouble();
    default:
      ADD_FAILURE() << "unexpected measure leaf " << e.ToSql();
      return false;
  }
}

/// Reference row selection for scanner tests: the ascending ids of the
/// rows satisfying `stmt`'s WHERE, found by ReferenceMatches on every row
/// in one plain loop — no chunking, fusion, bitmap or predicate-compiler
/// code, so it shares nothing with the scanners it checks.
inline std::vector<uint32_t> ReferenceRows(const Table& table,
                                           const sql::SelectStatement& stmt) {
  std::vector<uint32_t> rows;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (stmt.where == nullptr || ReferenceMatches(table, row, *stmt.where)) {
      rows.push_back(static_cast<uint32_t>(row));
    }
  }
  return rows;
}

/// Per-group aggregate state of ReferenceAggregate.
struct RefAgg {
  double sum = 0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// Group-key Values (ordered by Value::Compare; values that only print
/// alike stay apart) -> one RefAgg per input column.
using RefGroups = std::map<std::vector<Value>, std::vector<RefAgg>>;

/// The association the engine promises, written without any SelectRunner
/// code. The table splits into min(32, max(1, rows / 16384)) equal blocks.
/// A group space wider than 2^15 groups, or with groups * 4 >= rows /
/// blocks, folds as one block: every group's rows in row order. Any other
/// space folds each group's rows per block in row order, and the block
/// partials add up in block order. The group columns must be categorical;
/// one RefAgg per input column, in `inputs` order.
inline RefGroups ReferenceAggregate(const Table& t,
                                    const std::vector<std::string>& group_by,
                                    const std::vector<std::string>& inputs,
                                    const std::vector<uint32_t>& rows) {
  std::vector<size_t> gcols, icols;
  uint64_t groups = 1;
  for (const std::string& g : group_by) {
    gcols.push_back(static_cast<size_t>(t.schema().Find(g)));
    groups *= t.DictSize(gcols.back());
  }
  for (const std::string& in : inputs) {
    icols.push_back(static_cast<size_t>(t.schema().Find(in)));
  }
  const size_t n = t.num_rows();
  const size_t table_blocks =
      std::min<size_t>(32, std::max<size_t>(1, n / 16384));
  const bool one_block =
      groups > (1u << 15) || groups * 4 >= n / table_blocks;
  const size_t blocks = one_block ? 1 : table_blocks;
  RefGroups total;
  size_t next = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t end = n * (b + 1) / blocks;
    RefGroups partial;
    for (; next < rows.size() && rows[next] < end; ++next) {
      std::vector<Value> key;
      for (size_t c : gcols) key.push_back(t.ValueAt(rows[next], c));
      auto& aggs = partial[key];
      aggs.resize(icols.size());
      for (size_t i = 0; i < icols.size(); ++i) {
        const double v = t.NumericAt(rows[next], icols[i]);
        aggs[i].sum += v;
        ++aggs[i].count;
        if (v < aggs[i].min) aggs[i].min = v;
        if (v > aggs[i].max) aggs[i].max = v;
      }
    }
    for (const auto& [key, aggs] : partial) {
      auto& into = total[key];
      into.resize(icols.size());
      for (size_t i = 0; i < icols.size(); ++i) {
        into[i].sum += aggs[i].sum;
        into[i].count += aggs[i].count;
        if (aggs[i].min < into[i].min) into[i].min = aggs[i].min;
        if (aggs[i].max > into[i].max) into[i].max = aggs[i].max;
      }
    }
  }
  return total;
}

/// Rejects a WHERE leaf over an unknown column the way the backends'
/// predicate compilers do (kNotFound, same message).
inline Status ReferenceCheck(const Table& table, const sql::Expr& e) {
  for (const auto& child : e.children) {
    ZV_RETURN_NOT_OK(ReferenceCheck(table, *child));
  }
  if (!e.children.empty() || table.schema().Find(e.column) >= 0) {
    return Status::OK();
  }
  return Status::NotFound(
      StrFormat("unknown column '%s' in predicate", e.column.c_str()));
}

/// The reference backend of the identity suites: a Database whose row
/// selection is ReferenceMatches on every row of a range — no
/// CompiledPredicate, no bitmap, and it never absorbs another scanner — so
/// it shares no code with the scanners it checks. Every table registers as
/// one chunk; run it staged at ZV_THREADS=1 and its pass is one plain loop
/// over the table. Aggregation is the shared FinishChunkScan.
class ReferenceDatabase : public Database {
 public:
  std::string name() const override { return "reference"; }

  Status RegisterTable(std::shared_ptr<Table> table) override {
    const std::string name = table->name();
    const size_t rows = table->num_rows();
    ZV_RETURN_NOT_OK(Database::RegisterTable(std::move(table)));
    return RebuildChunkMap(name, std::max<size_t>(1, rows));
  }

  Result<std::unique_ptr<MultiChunkScanner>> PrepareMultiChunkScan(
      const std::vector<const sql::SelectStatement*>& stmts) override {
    ZV_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, BatchTable(stmts));
    auto scanner = std::make_unique<Scanner>();
    for (const sql::SelectStatement* stmt : stmts) {
      if (stmt->where != nullptr) {
        ZV_RETURN_NOT_OK(ReferenceCheck(*table, *stmt->where));
      }
      scanner->wheres.push_back(stmt->where == nullptr ? nullptr
                                                       : stmt->where->Clone());
    }
    scanner->table = std::move(table);
    return std::unique_ptr<MultiChunkScanner>(std::move(scanner));
  }

 private:
  struct Scanner : MultiChunkScanner {
    size_t num_statements() const override { return wheres.size(); }
    Status ScanRange(uint32_t begin, uint32_t end,
                     std::vector<std::vector<uint32_t>>* outs) const override {
      ZV_RETURN_NOT_OK(CheckCancelled());
      for (size_t i = 0; i < wheres.size(); ++i) {
        for (uint32_t row = begin; row < end; ++row) {
          if (wheres[i] == nullptr ||
              ReferenceMatches(*table, row, *wheres[i])) {
            (*outs)[i].push_back(row);
          }
        }
      }
      return Status::OK();
    }
    bool Absorb(std::unique_ptr<MultiChunkScanner>&) override {
      return false;
    }

    std::shared_ptr<Table> table;
    std::vector<std::unique_ptr<sql::Expr>> wheres;
  };
};

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
