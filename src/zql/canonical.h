/// \file canonical.h
/// \brief Canonical serialization of a ZQL AST — deterministic, re-parseable
/// ZQL text.
///
/// This is the cache identity of a query (server::QueryFingerprint hashes
/// it), replacing whitespace-normalized source text: a ZqlBuilder-built
/// query and its hand-typed textual equivalent serialize identically, so
/// they share one ResultCache entry. It is also the wire form of the typed
/// protocol's query payload (src/api/), which makes three properties
/// load-bearing:
///
///  1. *Re-parseable*: ParseQuery(CanonicalText(q)) succeeds for any query
///     the parser or builder can produce.
///  2. *Idempotent*: CanonicalText(ParseQuery(CanonicalText(q))) ==
///     CanonicalText(q), byte for byte (tests/zql_builder_test.cc locks
///     this over the full grammar).
///  3. *Faithful*: every result-relevant AST field round-trips — doubles
///     serialize with full round-trip precision (CanonicalDouble), so two
///     queries differing only in the 17th digit of a threshold do NOT
///     collide on one cache entry.
///
/// Not covered: `ZqlRow::line` (diagnostics only) and attribute/value
/// strings containing a single quote (the ZQL lexer has no escape syntax —
/// such queries cannot be written in text either).

#ifndef ZV_ZQL_CANONICAL_H_
#define ZV_ZQL_CANONICAL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "zql/ast.h"

namespace zv::zql {

/// Serializes the full query: one header line (`name | x | y | z ... |
/// constraints | viz | process`, with as many z columns as the widest row)
/// followed by one line per row.
std::string CanonicalText(const ZqlQuery& query);

/// Cell-level serializers, exposed for the builder and tests.
std::string CanonicalAxisEntry(const AxisEntry& entry);
std::string CanonicalZEntry(const ZEntry& entry);
std::string CanonicalZSetExpr(const ZSetExpr& expr);
std::string CanonicalVizEntry(const VizEntry& entry);
std::string CanonicalNameEntry(const NameEntry& entry);
std::string CanonicalProcessCell(const std::vector<ProcessDecl>& decls);
/// A constraints cell's canonical spelling, which visualizations carry as
/// their label: outside single-quoted literals, whitespace runs collapse to
/// one space, and a space next to a punctuation token (=<>!(),) is dropped
/// — "location = 'US'" and "location='US'" share a fingerprint. A space
/// between two operator characters (=<>!) is kept: the SQL lexer reads
/// "< =" as two tokens, so "profit < = 5" is a parse error, not
/// "profit<=5".
std::string CanonicalConstraints(const std::string& text);

/// One `ident.range` reference in a constraints cell: the variable and the
/// byte span [begin, end) it covers, ".range" included.
struct ConstraintRange {
  std::string var;
  size_t begin = 0;
  size_t end = 0;
};

/// Every `ident.range` reference in a constraints cell, in text order.
/// Single-quoted literals are skipped with CanonicalConstraints' toggle
/// rule, so `location='zz.range'` references nothing. Planning, EXPLAIN
/// and range substitution all read references through this one scanner.
std::vector<ConstraintRange> ConstraintRanges(const std::string& text);

}  // namespace zv::zql

#endif  // ZV_ZQL_CANONICAL_H_
