/// \file csv.h
/// \brief Minimal CSV reading/writing for example data exchange.

#ifndef ZV_COMMON_CSV_H_
#define ZV_COMMON_CSV_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace zv {

/// \brief Parsed CSV content: a header row plus data rows of equal width.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Calls `fn` on each record of CSV text in order, header first, with
/// quoted-field support ("" escapes a quote) — for callers that consume
/// records without keeping them; `fields` is reused from one record to the
/// next. Fails on a record whose arity differs from the header's, an
/// unterminated quoted field, or empty input; a failing `fn` stops the walk
/// with its status.
Status ForEachCsvRecord(
    std::string_view text,
    const std::function<Status(const std::vector<std::string>& fields)>& fn);

/// Parses CSV text into a header and rows (ForEachCsvRecord, kept).
Result<CsvTable> ParseCsv(const std::string& text);

/// Reads a whole CSV file into memory, unparsed.
Result<std::string> ReadCsvText(const std::string& path);

/// Serializes to CSV, quoting fields that contain separators/quotes.
std::string WriteCsv(const CsvTable& table);

}  // namespace zv

#endif  // ZV_COMMON_CSV_H_
