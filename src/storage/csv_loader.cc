#include "storage/csv_loader.h"

#include <cstdlib>
#include <set>

#include "common/strings.h"

namespace zv {

namespace {

enum class CellKind { kEmpty, kInt, kDouble, kOther };

CellKind ClassifyCell(const std::string& raw) {
  const std::string s = Trim(raw);
  if (s.empty()) return CellKind::kEmpty;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return CellKind::kOther;
  if (s.find_first_of(".eE") == std::string::npos) return CellKind::kInt;
  return CellKind::kDouble;
}

/// What one column's cells say about its type, gathered cell by cell.
struct ColumnEvidence {
  bool any_other = false, any_double = false, any_value = false;
  std::set<std::string> distinct;  ///< stops growing past the threshold

  void Add(const std::string& raw, size_t threshold) {
    switch (ClassifyCell(raw)) {
      case CellKind::kEmpty:
        break;
      case CellKind::kInt:
        any_value = true;
        break;
      case CellKind::kDouble:
        any_value = true;
        any_double = true;
        break;
      case CellKind::kOther:
        any_value = true;
        any_other = true;
        break;
    }
    if (distinct.size() <= threshold) distinct.insert(Trim(raw));
  }

  ColumnType Type(size_t threshold) const {
    if (any_other || !any_value) return ColumnType::kCategorical;
    // Low-cardinality numeric (years, months, codes): categorical.
    if (distinct.size() <= threshold) return ColumnType::kCategorical;
    return any_double ? ColumnType::kDouble : ColumnType::kInt;
  }
};

Result<Schema> SchemaFromEvidence(const std::vector<std::string>& header,
                                  const std::vector<ColumnEvidence>& evidence,
                                  const CsvLoadOptions& opts) {
  std::vector<ColumnDef> defs(header.size());
  for (size_t c = 0; c < header.size(); ++c) {
    defs[c].name = Trim(header[c]);
    if (defs[c].name.empty()) {
      return Status::InvalidArgument(
          StrFormat("CSV column %zu has an empty name", c));
    }
    defs[c].type = evidence[c].Type(opts.categorical_numeric_threshold);
  }
  for (const auto& [name, type] : opts.overrides) {
    bool found = false;
    for (auto& def : defs) {
      if (def.name == name) {
        def.type = type;
        found = true;
      }
    }
    if (!found) {
      return Status::NotFound("override for unknown CSV column: " + name);
    }
  }
  return Schema(defs);
}

void AppendCsvRow(const Schema& schema, const std::vector<std::string>& row,
                  TableBuilder* builder) {
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const std::string cell = Trim(row[c]);
    switch (schema.column(c).type) {
      case ColumnType::kCategorical: {
        // Keep numeric-looking categorical values as numbers so ZQL
        // constraints like year=2015 compare correctly.
        const CellKind kind = ClassifyCell(cell);
        if (kind == CellKind::kInt) {
          builder->AppendCategorical(
              c, Value::Int(std::strtoll(cell.c_str(), nullptr, 10)));
        } else if (kind == CellKind::kDouble) {
          builder->AppendCategorical(
              c, Value::Double(std::strtod(cell.c_str(), nullptr)));
        } else {
          builder->AppendCategorical(c, Value::Str(cell));
        }
        break;
      }
      case ColumnType::kInt:
        builder->AppendInt(
            c, cell.empty() ? 0 : std::strtoll(cell.c_str(), nullptr, 10));
        break;
      case ColumnType::kDouble:
        builder->AppendDouble(
            c, cell.empty() ? 0.0 : std::strtod(cell.c_str(), nullptr));
        break;
    }
  }
  builder->CommitRow();
}

}  // namespace

Result<Schema> InferCsvSchema(const CsvTable& csv, const CsvLoadOptions& opts) {
  if (csv.header.empty()) return Status::InvalidArgument("CSV has no header");
  std::vector<ColumnEvidence> evidence(csv.header.size());
  for (const auto& row : csv.rows) {
    for (size_t c = 0; c < evidence.size(); ++c) {
      evidence[c].Add(row[c], opts.categorical_numeric_threshold);
    }
  }
  return SchemaFromEvidence(csv.header, evidence, opts);
}

Result<std::shared_ptr<Table>> TableFromCsv(const std::string& table_name,
                                            const CsvTable& csv,
                                            const CsvLoadOptions& opts) {
  ZV_ASSIGN_OR_RETURN(Schema schema, InferCsvSchema(csv, opts));
  TableBuilder builder(table_name, schema);
  for (const auto& row : csv.rows) AppendCsvRow(schema, row, &builder);
  return builder.Finish();
}

Result<std::shared_ptr<Table>> TableFromCsvFile(const std::string& table_name,
                                                const std::string& path,
                                                const CsvLoadOptions& opts) {
  // Two passes over the text — infer the schema, then append rows — so no
  // parsed copy of the file (a heap string per cell) is ever built.
  ZV_ASSIGN_OR_RETURN(std::string text, ReadCsvText(path));
  std::vector<std::string> header;
  std::vector<ColumnEvidence> evidence;
  ZV_RETURN_NOT_OK(ForEachCsvRecord(
      text, [&](const std::vector<std::string>& fields) {
        if (header.empty()) {
          header = fields;
          evidence.resize(fields.size());
        } else {
          for (size_t c = 0; c < fields.size(); ++c) {
            evidence[c].Add(fields[c], opts.categorical_numeric_threshold);
          }
        }
        return Status::OK();
      }));
  ZV_ASSIGN_OR_RETURN(Schema schema, SchemaFromEvidence(header, evidence, opts));
  TableBuilder builder(table_name, schema);
  bool first = true;
  ZV_RETURN_NOT_OK(ForEachCsvRecord(
      text, [&](const std::vector<std::string>& fields) {
        if (!first) AppendCsvRow(schema, fields, &builder);
        first = false;
        return Status::OK();
      }));
  return builder.Finish();
}

}  // namespace zv
