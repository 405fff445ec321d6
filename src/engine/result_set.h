/// \file result_set.h
/// \brief A statement's result: column-major and typed (ColumnarResult), as
/// the fold produces it and ZQL routes it, or as rows of Values
/// (ResultSet), the SQL surface's type, built in one place (ToResultSet).

#ifndef ZV_ENGINE_RESULT_SET_H_
#define ZV_ENGINE_RESULT_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace zv {

class Table;

/// \brief Column names plus row-major values: the SQL surface's result.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  size_t num_rows() const { return rows.size(); }
  size_t num_columns() const { return columns.size(); }

  /// Index of a column by name, or -1.
  int Find(const std::string& name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  /// Fixed-width text rendering for examples and debugging.
  std::string ToString(size_t max_rows = 20) const;
};

/// \brief One output column of a statement, typed by what produced it;
/// only the vector its kind names is populated.
struct ResultColumn {
  enum class Kind {
    kCodes,    ///< dictionary codes of categorical table column `table_col`
    kDoubles,  ///< aggregates; a COUNT (`count`) is an exact integer
    kValues,   ///< binned or numeric group keys, numeric projections
  };
  std::string name;
  Kind kind = Kind::kValues;
  size_t table_col = 0;
  bool count = false;
  std::vector<int32_t> codes;
  std::vector<double> doubles;
  std::vector<Value> values;
};

/// \brief What a statement's aggregation (RunBlockedOverRows, so
/// Database::FinishChunkScan) returns: `num_rows` rows in output order, one
/// ResultColumn per SELECT item. Its codes index the dictionaries of
/// `table`, which must outlive it (the backend's catalog holds it).
struct ColumnarResult {
  const Table* table = nullptr;
  size_t num_rows = 0;
  std::vector<ResultColumn> columns;

  /// Row `row` of column `col` as ResultSet carries it: a code's dictionary
  /// Value, a COUNT as Int, any other aggregate as Double.
  Value At(size_t col, size_t row) const;
};

/// The SQL adapter: `result` as rows of Values (ColumnarResult::At).
ResultSet ToResultSet(const ColumnarResult& result);

}  // namespace zv

#endif  // ZV_ENGINE_RESULT_SET_H_
