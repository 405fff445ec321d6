#include "engine/result_set.h"

#include <algorithm>

#include "storage/table.h"

namespace zv {

Value ColumnarResult::At(size_t col, size_t row) const {
  const ResultColumn& c = columns[col];
  if (c.kind == ResultColumn::Kind::kCodes) {
    return table->DictValue(c.table_col, c.codes[row]);
  }
  if (c.kind == ResultColumn::Kind::kValues) return c.values[row];
  return c.count ? Value::Int(static_cast<int64_t>(c.doubles[row]))
                 : Value::Double(c.doubles[row]);
}

ResultSet ToResultSet(const ColumnarResult& result) {
  ResultSet rs;
  for (const ResultColumn& c : result.columns) rs.columns.push_back(c.name);
  rs.rows.resize(result.num_rows);
  for (size_t r = 0; r < result.num_rows; ++r) {
    for (size_t c = 0; c < result.columns.size(); ++c) {
      rs.rows[r].push_back(result.At(c, r));
    }
  }
  return rs;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  const size_t shown = std::min(max_rows, rows.size());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
      cells[r][c] = rows[r][c].ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::string out;
  auto pad = [&out](const std::string& s, size_t w) {
    out += s;
    out.append(w - s.size() + 2, ' ');
  };
  for (size_t c = 0; c < columns.size(); ++c) pad(columns[c], widths[c]);
  out += '\n';
  for (size_t c = 0; c < columns.size(); ++c) {
    out.append(widths[c], '-');
    out += "  ";
  }
  out += '\n';
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) pad(cells[r][c], widths[c]);
    out += '\n';
  }
  if (shown < rows.size()) {
    out += "... (" + std::to_string(rows.size() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace zv
