/// \file table.h
/// \brief In-memory columnar relation with dictionary-encoded categorical
/// columns — the storage substrate under both database backends.
///
/// zenvisage's storage model (§6.2) is column-oriented: non-indexed
/// (measure) columns are plain arrays; categorical columns are
/// dictionary-encoded, which makes the per-distinct-value Roaring indexes of
/// the RoaringDatabase natural. ScanDatabase (the PostgreSQL stand-in)
/// operates on the same tables without indexes.

#ifndef ZV_STORAGE_TABLE_H_
#define ZV_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace zv {

/// Physical column type.
enum class ColumnType {
  kCategorical,  ///< dictionary-encoded Value codes (string or int values)
  kInt,          ///< int64 measure
  kDouble,       ///< double measure
};

const char* ColumnTypeToString(ColumnType t);

/// \brief A named, typed column declaration.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kCategorical;
};

/// \brief Ordered list of column definitions with name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns);

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Returns the column index or -1 if absent.
  int Find(const std::string& name) const;
  bool Has(const std::string& name) const { return Find(name) >= 0; }

  /// Names of all columns, in schema order.
  std::vector<std::string> ColumnNames() const;

 private:
  std::vector<ColumnDef> columns_;
  std::unordered_map<std::string, int> index_;
};

/// \brief An immutable-after-build columnar table.
///
/// Row access is by (row index, column index). Categorical cells are read
/// either as dictionary codes (hot paths) or as Values (API boundaries).
class Table {
 public:
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  const std::string& name() const { return name_; }

  ColumnType column_type(size_t col) const { return schema_.column(col).type; }

  /// --- Categorical columns -------------------------------------------
  int32_t Code(size_t row, size_t col) const {
    return categorical_[col][row];
  }
  size_t DictSize(size_t col) const { return dictionaries_[col].size(); }
  const Value& DictValue(size_t col, int32_t code) const {
    return dictionaries_[col][static_cast<size_t>(code)];
  }
  /// Returns the code for `v` in column `col`, or -1 if not in dictionary.
  /// Equality is Value's numeric-aware ==, so Int(2012) finds a 2012.0
  /// entry; when several entries equal `v` the lowest code wins.
  int32_t LookupCode(size_t col, const Value& v) const;

  /// --- Dictionary order ----------------------------------------------
  /// Every categorical dictionary keeps its Value::Compare order, built
  /// once at TableBuilder::Finish: DictRanks maps code -> rank (0 =
  /// smallest) and DictCodesByRank is its inverse. Ties (values that
  /// compare equal, e.g. a NaN) keep code order.
  const std::vector<int32_t>& DictRanks(size_t col) const {
    return dict_ranks_[col];
  }
  const std::vector<int32_t>& DictCodesByRank(size_t col) const {
    return dict_by_rank_[col];
  }
  /// True when every rank compares strictly greater than the one before
  /// it, so comparing ranks is exactly comparing values. Deduplication
  /// makes this hold for any dictionary without NaN.
  bool DictOrderStrict(size_t col) const { return dict_strict_[col] != 0; }
  /// Ranks [first, second) of the entries equal to `v`, by binary search.
  /// Requires DictOrderStrict(col).
  std::pair<size_t, size_t> EqualRankRange(size_t col, const Value& v) const;

  /// --- Measure columns -----------------------------------------------
  double NumericAt(size_t row, size_t col) const;
  int64_t IntAt(size_t row, size_t col) const { return ints_[col][row]; }

  /// Generic (slow-path) cell access as a Value.
  Value ValueAt(size_t row, size_t col) const;

  /// Raw column storage for tight loops.
  const std::vector<int32_t>& CategoricalColumn(size_t col) const {
    return categorical_[col];
  }
  const std::vector<double>& DoubleColumn(size_t col) const {
    return doubles_[col];
  }
  const std::vector<int64_t>& IntColumn(size_t col) const {
    return ints_[col];
  }
  const std::vector<Value>& Dictionary(size_t col) const {
    return dictionaries_[col];
  }

  /// Approximate resident bytes (columns + dictionaries).
  size_t MemoryBytes() const;

 private:
  friend class TableBuilder;

  std::string name_;
  Schema schema_;
  size_t num_rows_ = 0;
  // Indexed by column position; only the vector matching the column's type
  // is populated.
  std::vector<std::vector<int32_t>> categorical_;
  std::vector<std::vector<Value>> dictionaries_;
  std::vector<std::vector<int32_t>> dict_ranks_;
  std::vector<std::vector<int32_t>> dict_by_rank_;
  std::vector<uint8_t> dict_strict_;
  std::vector<std::vector<int64_t>> ints_;
  std::vector<std::vector<double>> doubles_;
};

/// \brief Row-at-a-time builder that performs dictionary encoding.
class TableBuilder {
 public:
  TableBuilder(std::string table_name, Schema schema);

  /// Appends one row; `values` must match the schema arity and cell types
  /// must be coercible to the column types.
  Status AddRow(const std::vector<Value>& values);

  /// Typed fast-path appenders (one call per column, then CommitRow()).
  void AppendCategorical(size_t col, const Value& v);
  void AppendInt(size_t col, int64_t v);
  void AppendDouble(size_t col, double v);
  void CommitRow() { ++table_->num_rows_; }

  size_t num_rows() const { return table_->num_rows_; }

  /// Finalizes and returns the table, building each dictionary's order;
  /// the builder is consumed.
  std::shared_ptr<Table> Finish();

 private:
  int32_t EncodeDictionary(size_t col, const Value& v);

  std::shared_ptr<Table> table_;
  std::vector<std::unordered_map<Value, int32_t, ValueHash>> dict_index_;
};

/// \brief Named collection of tables shared by database backends.
class Catalog {
 public:
  Status AddTable(std::shared_ptr<Table> table);
  Result<std::shared_ptr<Table>> GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

 private:
  std::unordered_map<std::string, std::shared_ptr<Table>> tables_;
};

}  // namespace zv

#endif  // ZV_STORAGE_TABLE_H_
