#include "common/csv.h"

#include <fstream>

#include "common/strings.h"

namespace zv {

Status ForEachCsvRecord(
    std::string_view text,
    const std::function<Status(const std::vector<std::string>& fields)>& fn) {
  std::vector<std::string> current;
  std::string field;
  size_t records = 0;  // the header is record 0
  size_t arity = 0;
  bool in_quotes = false;
  bool row_has_content = false;
  auto end_field = [&]() {
    current.push_back(field);
    field.clear();
  };
  auto end_row = [&]() -> Status {
    end_field();
    if (records == 0) {
      arity = current.size();
    } else if (current.size() != arity) {
      return Status::ParseError(
          StrFormat("CSV row %zu has %zu fields, expected %zu", records,
                    current.size(), arity));
    }
    ZV_RETURN_NOT_OK(fn(current));
    ++records;
    current.clear();
    row_has_content = false;
    return Status::OK();
  };
  // Appends the run of characters from i up to the next one `stop`
  // accepts, leaving i on the run's last character.
  auto append_run = [&](size_t& i, auto stop) {
    size_t end = i + 1;
    while (end < text.size() && !stop(text[end])) ++end;
    field.append(text.data() + i, end - i);
    i = end - 1;
  };
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        append_run(i, [](char x) { return x == '"'; });
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_field();
        row_has_content = true;
        break;
      case '\r':
        break;
      case '\n': {
        if (row_has_content || !field.empty() || !current.empty()) {
          ZV_RETURN_NOT_OK(end_row());
        }
        break;
      }
      default:
        append_run(i, [](char x) {
          return x == ',' || x == '"' || x == '\r' || x == '\n';
        });
        row_has_content = true;
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quoted CSV field");
  if (row_has_content || !field.empty() || !current.empty()) {
    ZV_RETURN_NOT_OK(end_row());
  }
  if (records == 0) return Status::ParseError("empty CSV input");
  return Status::OK();
}

Result<CsvTable> ParseCsv(const std::string& text) {
  CsvTable table;
  bool header = true;
  ZV_RETURN_NOT_OK(ForEachCsvRecord(
      text, [&](const std::vector<std::string>& fields) {
        if (header) {
          table.header = fields;
          header = false;
        } else {
          table.rows.push_back(fields);
        }
        return Status::OK();
      }));
  return table;
}

Result<std::string> ReadCsvText(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) return Status::NotFound("cannot open CSV file: " + path);
  std::string text(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(text.data(), size)) {
    return Status::NotFound("cannot read CSV file: " + path);
  }
  return text;
}

namespace {

std::string EscapeField(const std::string& f) {
  if (f.find_first_of(",\"\n\r") == std::string::npos) return f;
  std::string out = "\"";
  for (char c : f) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string WriteCsv(const CsvTable& table) {
  std::string out;
  auto write_row = [&out](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out += ',';
      out += EscapeField(row[i]);
    }
    out += '\n';
  };
  write_row(table.header);
  for (const auto& row : table.rows) write_row(row);
  return out;
}

}  // namespace zv
