#include "storage/table.h"

#include <algorithm>
#include <numeric>

#include "common/strings.h"

namespace zv {

const char* ColumnTypeToString(ColumnType t) {
  switch (t) {
    case ColumnType::kCategorical:
      return "categorical";
    case ColumnType::kInt:
      return "int";
    case ColumnType::kDouble:
      return "double";
  }
  return "unknown";
}

Schema::Schema(std::vector<ColumnDef> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    index_[columns_[i].name] = static_cast<int>(i);
  }
}

int Schema::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

std::vector<std::string> Schema::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& c : columns_) names.push_back(c.name);
  return names;
}

int32_t Table::LookupCode(size_t col, const Value& v) const {
  const auto& dict = dictionaries_[col];
  if (!DictOrderStrict(col)) {
    for (size_t i = 0; i < dict.size(); ++i) {
      if (dict[i] == v) return static_cast<int32_t>(i);
    }
    return -1;
  }
  const auto [lo, hi] = EqualRankRange(col, v);
  int32_t code = -1;
  for (size_t r = lo; r < hi; ++r) {
    const int32_t c = dict_by_rank_[col][r];
    if (code < 0 || c < code) code = c;
  }
  return code;
}

std::pair<size_t, size_t> Table::EqualRankRange(size_t col,
                                                const Value& v) const {
  const auto& dict = dictionaries_[col];
  const auto& by_rank = dict_by_rank_[col];
  const auto lo = std::lower_bound(
      by_rank.begin(), by_rank.end(), v, [&dict](int32_t code, const Value& x) {
        return dict[static_cast<size_t>(code)] < x;
      });
  const auto hi = std::upper_bound(
      lo, by_rank.end(), v, [&dict](const Value& x, int32_t code) {
        return x < dict[static_cast<size_t>(code)];
      });
  return {static_cast<size_t>(lo - by_rank.begin()),
          static_cast<size_t>(hi - by_rank.begin())};
}

double Table::NumericAt(size_t row, size_t col) const {
  switch (schema_.column(col).type) {
    case ColumnType::kDouble:
      return doubles_[col][row];
    case ColumnType::kInt:
      return static_cast<double>(ints_[col][row]);
    case ColumnType::kCategorical: {
      const Value& v = DictValue(col, categorical_[col][row]);
      return v.is_numeric() ? v.AsDouble() : 0.0;
    }
  }
  return 0.0;
}

Value Table::ValueAt(size_t row, size_t col) const {
  switch (schema_.column(col).type) {
    case ColumnType::kDouble:
      return Value::Double(doubles_[col][row]);
    case ColumnType::kInt:
      return Value::Int(ints_[col][row]);
    case ColumnType::kCategorical:
      return DictValue(col, categorical_[col][row]);
  }
  return Value::Null();
}

size_t Table::MemoryBytes() const {
  size_t n = 0;
  for (const auto& c : categorical_) n += c.size() * sizeof(int32_t);
  for (const auto& c : ints_) n += c.size() * sizeof(int64_t);
  for (const auto& c : doubles_) n += c.size() * sizeof(double);
  for (const auto& d : dictionaries_) n += d.size() * 32;  // rough
  for (const auto& r : dict_ranks_) n += 2 * r.size() * sizeof(int32_t);
  return n;
}

TableBuilder::TableBuilder(std::string table_name, Schema schema)
    : table_(std::make_shared<Table>()) {
  table_->name_ = std::move(table_name);
  table_->schema_ = std::move(schema);
  const size_t n = table_->schema_.num_columns();
  table_->categorical_.resize(n);
  table_->dictionaries_.resize(n);
  table_->ints_.resize(n);
  table_->doubles_.resize(n);
  dict_index_.resize(n);
}

int32_t TableBuilder::EncodeDictionary(size_t col, const Value& v) {
  auto& index = dict_index_[col];
  auto it = index.find(v);
  if (it != index.end()) return it->second;
  const int32_t code = static_cast<int32_t>(table_->dictionaries_[col].size());
  table_->dictionaries_[col].push_back(v);
  index.emplace(v, code);
  return code;
}

void TableBuilder::AppendCategorical(size_t col, const Value& v) {
  table_->categorical_[col].push_back(EncodeDictionary(col, v));
}

void TableBuilder::AppendInt(size_t col, int64_t v) {
  table_->ints_[col].push_back(v);
}

void TableBuilder::AppendDouble(size_t col, double v) {
  table_->doubles_[col].push_back(v);
}

Status TableBuilder::AddRow(const std::vector<Value>& values) {
  const Schema& schema = table_->schema_;
  if (values.size() != schema.num_columns()) {
    return Status::InvalidArgument(StrFormat(
        "row arity %zu does not match schema arity %zu", values.size(),
        schema.num_columns()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    switch (schema.column(i).type) {
      case ColumnType::kCategorical:
        AppendCategorical(i, values[i]);
        break;
      case ColumnType::kInt:
        if (!values[i].is_numeric()) {
          return Status::TypeMismatch(StrFormat(
              "column '%s' expects int, got %s", schema.column(i).name.c_str(),
              DataTypeToString(values[i].type())));
        }
        AppendInt(i, values[i].is_int()
                         ? values[i].AsInt()
                         : static_cast<int64_t>(values[i].AsDouble()));
        break;
      case ColumnType::kDouble:
        if (!values[i].is_numeric()) {
          return Status::TypeMismatch(StrFormat(
              "column '%s' expects double, got %s",
              schema.column(i).name.c_str(),
              DataTypeToString(values[i].type())));
        }
        AppendDouble(i, values[i].AsDouble());
        break;
    }
  }
  CommitRow();
  return Status::OK();
}

std::shared_ptr<Table> TableBuilder::Finish() {
  Table& t = *table_;
  const size_t ncols = t.schema_.num_columns();
  t.dict_ranks_.resize(ncols);
  t.dict_by_rank_.resize(ncols);
  t.dict_strict_.assign(ncols, 1);
  for (size_t col = 0; col < ncols; ++col) {
    const auto& dict = t.dictionaries_[col];
    auto& by_rank = t.dict_by_rank_[col];
    by_rank.resize(dict.size());
    std::iota(by_rank.begin(), by_rank.end(), 0);
    // Stable so that values comparing equal keep code order; a merge sort
    // also stays in bounds when NaN makes Compare inconsistent.
    std::stable_sort(by_rank.begin(), by_rank.end(),
                     [&dict](int32_t a, int32_t b) {
                       return dict[static_cast<size_t>(a)] <
                              dict[static_cast<size_t>(b)];
                     });
    auto& ranks = t.dict_ranks_[col];
    ranks.resize(dict.size());
    for (size_t r = 0; r < by_rank.size(); ++r) {
      ranks[static_cast<size_t>(by_rank[r])] = static_cast<int32_t>(r);
      if (r > 0 && !(dict[static_cast<size_t>(by_rank[r - 1])] <
                     dict[static_cast<size_t>(by_rank[r])])) {
        t.dict_strict_[col] = 0;
      }
    }
  }
  dict_index_.clear();
  return std::move(table_);
}

Status Catalog::AddTable(std::shared_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.count(name)) {
    return Status::AlreadyExists("table already in catalog: " + name);
  }
  tables_.emplace(name, std::move(table));
  return Status::OK();
}

Result<std::shared_ptr<Table>> Catalog::GetTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  // zv-lint: order-independent — sorted before returning. (The sort is
  // load-bearing: this used to return hash order, which leaks the
  // unordered_map's layout into anything that renders the catalog.)
  for (const auto& [name, t] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace zv
