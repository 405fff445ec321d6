#include "zql/canonical.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/json.h"
#include "common/strings.h"

namespace zv::zql {

namespace {

/// Quoted attribute: the form every attr position accepts.
std::string QuotedAttr(const std::string& attr) { return "'" + attr + "'"; }

/// Doubles in ZQL *value* position must contain no '.' — the grammar splits
/// attr.value at the last top-level dot, so `'price'.3.5` is ambiguous.
/// Render as integer-mantissa × 10^exp ("3.5" -> "35e-1"): strtod maps the
/// same decimal back to the identical double, and the 'e' keeps a re-parse
/// from degrading to Int.
std::string DotlessDouble(double d) {
  std::string s = CanonicalDouble(d);
  const size_t dot = s.find('.');
  if (dot == std::string::npos) return s;  // "1e+20" style — already safe
  const size_t epos = s.find_first_of("eE");
  std::string mant = epos == std::string::npos ? s : s.substr(0, epos);
  long exp = epos == std::string::npos
                 ? 0
                 : std::strtol(s.c_str() + epos + 1, nullptr, 10);
  const size_t dpos = mant.find('.');
  exp -= static_cast<long>(mant.size() - dpos - 1);
  mant.erase(dpos, 1);
  // Strip redundant leading zeros ("0.1" -> mant "01"), keeping one digit.
  const size_t first = mant[0] == '-' ? 1 : 0;
  size_t keep = first;
  while (keep + 1 < mant.size() && mant[keep] == '0') ++keep;
  mant.erase(first, keep - first);
  return mant + "e" + std::to_string(exp);
}

/// A literal Value in ZQL text. Ints stay bare (re-parse as Int), doubles
/// use the dotless form above, strings are quoted.
std::string CanonicalValue(const Value& v) {
  if (v.is_null()) return "NULL";  // unreachable from parsed queries
  if (v.is_int()) return std::to_string(v.AsInt());
  if (v.is_double()) return DotlessDouble(v.AsDouble());
  return "'" + v.AsString() + "'";
}

std::string CanonicalAxisValue(const AxisValue& v) {
  const char* sep = v.compose == AxisValue::Compose::kCross ? "*" : "+";
  std::string out;
  for (size_t i = 0; i < v.attrs.size(); ++i) {
    if (i) out += sep;
    out += QuotedAttr(v.attrs[i]);
  }
  return out;
}

std::string CanonicalAttrSpec(const AttrSpec& spec) {
  switch (spec.kind) {
    case AttrSpec::Kind::kLiteral:
      return QuotedAttr(spec.names.empty() ? "" : spec.names[0]);
    case AttrSpec::Kind::kAll:
      return "*";
    case AttrSpec::Kind::kAllExcept: {
      std::vector<std::string> quoted;
      for (const std::string& n : spec.names) quoted.push_back(QuotedAttr(n));
      // Built additively (not one chained operator+ expression): GCC 12's
      // -Wrestrict trips a known false positive on the temporaries.
      std::string out = "(* \\ {";
      out += Join(quoted, ", ");
      out += "})";
      return out;
    }
    case AttrSpec::Kind::kList: {
      std::vector<std::string> quoted;
      for (const std::string& n : spec.names) quoted.push_back(QuotedAttr(n));
      std::string out = "{";
      out += Join(quoted, ", ");
      out += "}";
      return out;
    }
  }
  return "*";
}

std::string CanonicalValueSpec(const ValueSpec& spec) {
  switch (spec.kind) {
    case ValueSpec::Kind::kLiteral:
      return CanonicalValue(spec.values.empty() ? Value::Null()
                                                : spec.values[0]);
    case ValueSpec::Kind::kAll:
      return "*";
    case ValueSpec::Kind::kAllExcept: {
      std::vector<std::string> vals;
      for (const Value& v : spec.values) vals.push_back(CanonicalValue(v));
      std::string out = "(* \\ {";
      out += Join(vals, ", ");
      out += "})";
      return out;
    }
    case ValueSpec::Kind::kList: {
      std::vector<std::string> vals;
      for (const Value& v : spec.values) vals.push_back(CanonicalValue(v));
      std::string out = "{";
      out += Join(vals, ", ");
      out += "}";
      return out;
    }
    case ValueSpec::Kind::kDerived:
      return "_";
  }
  return "*";
}

std::string CanonicalProcessExpr(const ProcessExpr& expr) {
  if (expr.kind == ProcessExpr::Kind::kReduce) {
    const char* kw = expr.reduce == ProcessExpr::Reduce::kMin   ? "min"
                     : expr.reduce == ProcessExpr::Reduce::kMax ? "max"
                                                                : "sum";
    std::string out = std::string(kw) + "_" + Join(expr.reduce_vars, ",");
    out += " ";
    out += expr.child != nullptr ? CanonicalProcessExpr(*expr.child) : "";
    return out;
  }
  return expr.func + "(" + Join(expr.args, ", ") + ")";
}

std::string CanonicalProcessDecl(const ProcessDecl& decl) {
  std::string out = Join(decl.outputs, ", ") + " <- ";
  if (decl.kind == ProcessDecl::Kind::kRepresentative) {
    out += "R(" + std::to_string(decl.repr_k);
    for (const std::string& v : decl.repr_vars) out += ", " + v;
    out += ", " + decl.repr_component + ")";
    return out;
  }
  out += decl.mech == Mechanism::kArgMin   ? "argmin"
         : decl.mech == Mechanism::kArgMax ? "argmax"
                                           : "argany";
  out += "_";
  out += Join(decl.iter_vars, ",");
  if (decl.filter.k.has_value()) {
    out += "[k=";
    out += std::to_string(*decl.filter.k);
    out += "]";
  } else if (decl.filter.t_above.has_value()) {
    out += "[t > ";
    out += CanonicalDouble(*decl.filter.t_above);
    out += "]";
  } else if (decl.filter.t_below.has_value()) {
    out += "[t < ";
    out += CanonicalDouble(*decl.filter.t_below);
    out += "]";
  }
  out += " ";
  out += decl.expr != nullptr ? CanonicalProcessExpr(*decl.expr) : "";
  return out;
}

}  // namespace

std::string CanonicalConstraints(const std::string& text) {
  auto is_op = [](char c) {
    return c == '=' || c == '<' || c == '>' || c == '!';
  };
  auto is_punct = [&](char c) {
    return is_op(c) || c == '(' || c == ')' || c == ',';
  };
  std::string out;
  bool in_quote = false;
  bool pending = false;
  for (char c : Trim(text)) {
    if (in_quote) {
      out += c;
      if (c == '\'') in_quote = false;
      continue;
    }
    if (c == ' ' || c == '\t') {
      pending = !out.empty();
      continue;
    }
    if (pending) {
      // "< =" stays split: joined it would read as one operator.
      const bool split_op = is_op(out.back()) && is_op(c);
      if (split_op || (!is_punct(out.back()) && !is_punct(c))) out += ' ';
      pending = false;
    }
    out += c;
    if (c == '\'') in_quote = true;
  }
  return out;
}

std::vector<ConstraintRange> ConstraintRanges(const std::string& text) {
  std::vector<ConstraintRange> refs;
  bool in_quote = false;
  size_t ident = 0;  // start of the identifier run that ends at i
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\'') in_quote = !in_quote;
    if (in_quote) {
      ident = i + 1;
      continue;
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') continue;
    if (ident < i && text.compare(i, 6, ".range") == 0) {
      refs.push_back({text.substr(ident, i - ident), ident, i + 6});
      i += 5;
    }
    ident = i + 1;
  }
  return refs;
}

std::string CanonicalZSetExpr(const ZSetExpr& expr) {
  switch (expr.kind) {
    case ZSetExpr::Kind::kAttrDotValue:
      return CanonicalAttrSpec(expr.attr) + "." + CanonicalValueSpec(expr.value);
    case ZSetExpr::Kind::kVarRange:
      return expr.var + ".range";
    case ZSetExpr::Kind::kNamedSet:
      return expr.var;
    case ZSetExpr::Kind::kOp: {
      // Every op node is parenthesized: a bare depth-0 '|' would read as
      // the row's cell separator, and explicit grouping makes the
      // serialization structural (associativity never re-derived).
      const std::string lhs =
          expr.lhs != nullptr ? CanonicalZSetExpr(*expr.lhs) : "";
      const std::string rhs =
          expr.rhs != nullptr ? CanonicalZSetExpr(*expr.rhs) : "";
      return "(" + lhs + " " + std::string(1, expr.op) + " " + rhs + ")";
    }
  }
  return "";
}

std::string CanonicalNameEntry(const NameEntry& entry) {
  std::string out;
  if (entry.output) out += "*";
  if (entry.user_input) out += "-";
  out += entry.name;
  switch (entry.derive) {
    case NameEntry::Derive::kNone:
      break;
    case NameEntry::Derive::kPlus:
      out += "=" + entry.source_a + "+" + entry.source_b;
      break;
    case NameEntry::Derive::kMinus:
      out += "=" + entry.source_a + "-" + entry.source_b;
      break;
    case NameEntry::Derive::kIntersect:
      out += "=" + entry.source_a + "^" + entry.source_b;
      break;
    case NameEntry::Derive::kIndex:
      out += "=" + entry.source_a + "[" + std::to_string(entry.index_a) + "]";
      break;
    case NameEntry::Derive::kSlice:
      out += "=" + entry.source_a + "[" + std::to_string(entry.index_a) + ":" +
             std::to_string(entry.index_b) + "]";
      break;
    case NameEntry::Derive::kRange:
      out += "=" + entry.source_a + ".range";
      break;
    case NameEntry::Derive::kOrder:
      out += "=" + entry.source_a + ".order";
      break;
  }
  return out;
}

std::string CanonicalAxisEntry(const AxisEntry& entry) {
  switch (entry.kind) {
    case AxisEntry::Kind::kNone:
      return "";
    case AxisEntry::Kind::kLiteral:
      return CanonicalAxisValue(entry.literal);
    case AxisEntry::Kind::kDeclare: {
      if (!entry.named_set.empty()) return entry.var + " <- " + entry.named_set;
      std::vector<std::string> items;
      for (const AxisValue& v : entry.set) items.push_back(CanonicalAxisValue(v));
      return entry.var + " <- {" + Join(items, ", ") + "}";
    }
    case AxisEntry::Kind::kReuse:
      return entry.var;
    case AxisEntry::Kind::kDerived:
      return entry.var + " <- _";
    case AxisEntry::Kind::kOrderBy:
      return entry.var + " ->";
  }
  return "";
}

std::string CanonicalZEntry(const ZEntry& entry) {
  switch (entry.kind) {
    case ZEntry::Kind::kNone:
      return "";
    case ZEntry::Kind::kLiteral:
      return QuotedAttr(entry.literal.attr) + "." +
             CanonicalValue(entry.literal.value);
    case ZEntry::Kind::kDeclare:
      return Join(entry.vars, ".") + " <- " +
             (entry.set != nullptr ? CanonicalZSetExpr(*entry.set) : "");
    case ZEntry::Kind::kReuse:
      return entry.vars.empty() ? "" : entry.vars[0];
    case ZEntry::Kind::kDerived:
      if (entry.derived_attr.empty()) return Join(entry.vars, ".") + " <- _";
      return Join(entry.vars, ".") + " <- " + QuotedAttr(entry.derived_attr) +
             "._";
    case ZEntry::Kind::kOrderBy:
      return (entry.vars.empty() ? "" : entry.vars[0]) + " ->";
  }
  return "";
}

std::string CanonicalVizEntry(const VizEntry& entry) {
  switch (entry.kind) {
    case VizEntry::Kind::kNone:
      return "";
    case VizEntry::Kind::kLiteral:
      return entry.literal.ToString();
    case VizEntry::Kind::kDeclare: {
      if (entry.set.size() == 1) {
        return entry.var + " <- " + entry.set[0].ToString();
      }
      std::vector<std::string> specs;
      for (const VizSpec& s : entry.set) specs.push_back(s.ToString());
      return entry.var + " <- {" + Join(specs, ", ") + "}";
    }
    case VizEntry::Kind::kReuse:
      return entry.var;
  }
  return "";
}

std::string CanonicalProcessCell(const std::vector<ProcessDecl>& decls) {
  if (decls.empty()) return "";
  if (decls.size() == 1) return CanonicalProcessDecl(decls[0]);
  std::vector<std::string> parts;
  for (const ProcessDecl& d : decls) {
    std::string part = "(";
    part += CanonicalProcessDecl(d);
    part += ")";
    parts.push_back(std::move(part));
  }
  return Join(parts, ", ");
}

std::string CanonicalText(const ZqlQuery& query) {
  size_t z_cols = 1;
  for (const ZqlRow& row : query.rows) {
    z_cols = std::max(z_cols, row.zs.size());
  }
  std::string out = "name | x | y";
  for (size_t i = 0; i < z_cols; ++i) {
    out += i == 0 ? " | z" : " | z" + std::to_string(i + 1);
  }
  out += " | constraints | viz | process\n";
  for (const ZqlRow& row : query.rows) {
    std::vector<std::string> cells;
    cells.push_back(CanonicalNameEntry(row.name));
    cells.push_back(CanonicalAxisEntry(row.x));
    cells.push_back(CanonicalAxisEntry(row.y));
    for (size_t i = 0; i < z_cols; ++i) {
      cells.push_back(i < row.zs.size() ? CanonicalZEntry(row.zs[i]) : "");
    }
    cells.push_back(CanonicalConstraints(row.constraints));
    cells.push_back(CanonicalVizEntry(row.viz));
    cells.push_back(CanonicalProcessCell(row.processes));
    std::string line = Join(cells, " | ");
    while (!line.empty() && line.back() == ' ') line.pop_back();
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace zv::zql
