#include "zql/operators.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "sql/parser.h"
#include "tasks/topk.h"
#include "viz/binning.h"
#include "zql/canonical.h"

namespace zv::zql::exec {

namespace {

/// One slot of a row plan: either a fixed value or (domain, tuple position).
struct Slot {
  bool used = false;
  bool fixed = false;
  VarValue value;  // fixed
  std::shared_ptr<VarDomain> domain;
  int pos = -1;  // position of the variable inside the domain tuple
  size_t stride = 0;  // the domain's stride in its component (0: none)
  /// A Z slot varying across a fetch binds its values once: the IN list
  /// (distinct by Value ==, first-seen order), each tuple's index into it,
  /// and each tuple's attribute as an index among the slot's attributes.
  bool varying = false;
  std::vector<Value> values;
  std::vector<uint32_t> value_of_tuple, attr_of_tuple;

  /// The domain tuple the slot reads at flattened position p (0 if none).
  size_t Tuple(size_t p) const {
    return stride == 0 ? 0 : (p / stride) % domain->size();
  }
  /// The slot's value at flattened position p, by reference.
  const VarValue& At(size_t p) const {
    return stride == 0 ? value
                       : domain->tuples[Tuple(p)][static_cast<size_t>(pos)];
  }
};

std::string JoinKey(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& p : parts) {
    out += p;
    out += '\x1f';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set evaluation
// ---------------------------------------------------------------------------

Result<std::vector<std::string>> AttrsOf(const AttrSpec& spec,
                                         const ExecState& st) {
  switch (spec.kind) {
    case AttrSpec::Kind::kLiteral:
    case AttrSpec::Kind::kList:
      return spec.names;
    case AttrSpec::Kind::kAll:
    case AttrSpec::Kind::kAllExcept: {
      std::vector<std::string> out;
      for (const ColumnDef& c : st.table->schema().columns()) {
        if (c.type != ColumnType::kCategorical) continue;
        bool excluded = false;
        for (const std::string& e : spec.names) excluded |= e == c.name;
        if (!excluded) out.push_back(c.name);
      }
      return out;
    }
  }
  return Status::Internal("bad attr spec");
}

Result<std::vector<Value>> ValuesOfAttr(const std::string& attr,
                                        const ValueSpec& spec,
                                        const ExecState& st) {
  if (spec.kind == ValueSpec::Kind::kLiteral ||
      spec.kind == ValueSpec::Kind::kList) {
    return spec.values;
  }
  const int col = st.table->schema().Find(attr);
  if (col < 0) return Status::NotFound("unknown Z attribute: " + attr);
  if (st.table->column_type(static_cast<size_t>(col)) !=
      ColumnType::kCategorical) {
    return Status::Unsupported(
        "Z iteration over non-categorical attribute: " + attr);
  }
  std::vector<Value> out;
  const size_t c = static_cast<size_t>(col);
  for (size_t code = 0; code < st.table->DictSize(c); ++code) {
    const Value& v = st.table->DictValue(c, static_cast<int32_t>(code));
    if (spec.kind == ValueSpec::Kind::kAllExcept) {
      bool excluded = false;
      for (const Value& e : spec.values) excluded |= e == v;
      if (excluded) continue;
    }
    out.push_back(v);
  }
  return out;
}

std::vector<ZValue> DedupZ(const std::vector<ZValue>& in) {
  std::vector<ZValue> out;
  for (const ZValue& z : in) {
    if (std::find(out.begin(), out.end(), z) == out.end()) out.push_back(z);
  }
  return out;
}

Result<std::vector<ZValue>> EvalZSet(const ZSetExpr& e, const ExecState& st) {
  switch (e.kind) {
    case ZSetExpr::Kind::kAttrDotValue: {
      std::vector<ZValue> out;
      ZV_ASSIGN_OR_RETURN(std::vector<std::string> attrs,
                          AttrsOf(e.attr, st));
      for (const std::string& attr : attrs) {
        ZV_ASSIGN_OR_RETURN(std::vector<Value> values,
                            ValuesOfAttr(attr, e.value, st));
        for (Value& v : values) out.push_back({attr, std::move(v)});
      }
      return out;
    }
    case ZSetExpr::Kind::kVarRange: {
      auto it = st.vars.find(e.var);
      if (it == st.vars.end()) {
        return Status::NotFound("unknown variable: " + e.var + ".range");
      }
      const VarDomain& d = *it->second;
      const int pos = d.PosOf(e.var);
      std::vector<ZValue> out;
      for (const auto& tuple : d.tuples) {
        const VarValue& v = tuple[static_cast<size_t>(pos)];
        if (!std::holds_alternative<ZValue>(v)) {
          return Status::TypeMismatch(e.var +
                                      ".range used on a non-Z variable");
        }
        out.push_back(std::get<ZValue>(v));
      }
      return DedupZ(out);
    }
    case ZSetExpr::Kind::kNamedSet: {
      auto it = st.opts->named_sets.value_sets.find(e.var);
      if (it == st.opts->named_sets.value_sets.end()) {
        return Status::NotFound("unknown named set: " + e.var);
      }
      std::vector<ZValue> out;
      for (const Value& v : it->second.values) {
        out.push_back({it->second.attr, v});
      }
      return out;
    }
    case ZSetExpr::Kind::kOp: {
      ZV_ASSIGN_OR_RETURN(std::vector<ZValue> lhs, EvalZSet(*e.lhs, st));
      ZV_ASSIGN_OR_RETURN(std::vector<ZValue> rhs, EvalZSet(*e.rhs, st));
      std::vector<ZValue> out;
      if (e.op == '|') {
        out = lhs;
        for (const ZValue& z : rhs) {
          if (std::find(out.begin(), out.end(), z) == out.end()) {
            out.push_back(z);
          }
        }
      } else if (e.op == '&') {
        for (const ZValue& z : lhs) {
          if (std::find(rhs.begin(), rhs.end(), z) != rhs.end()) {
            out.push_back(z);
          }
        }
        out = DedupZ(out);
      } else {  // '\'
        for (const ZValue& z : lhs) {
          if (std::find(rhs.begin(), rhs.end(), z) == rhs.end()) {
            out.push_back(z);
          }
        }
        out = DedupZ(out);
      }
      return out;
    }
  }
  return Status::Internal("bad Z set expression");
}

// ---------------------------------------------------------------------------
// Slot resolution
// ---------------------------------------------------------------------------

std::shared_ptr<VarDomain> RegisterDomain(
    const std::vector<std::string>& names,
    std::vector<std::vector<VarValue>> tuples, ExecState* st) {
  auto dom = std::make_shared<VarDomain>();
  dom->names = names;
  dom->tuples = std::move(tuples);
  for (const std::string& n : names) st->vars[n] = dom;
  return dom;
}

Result<Slot> ResolveAxisEntry(const AxisEntry& e, ExecState* st) {
  Slot slot;
  switch (e.kind) {
    case AxisEntry::Kind::kNone:
    case AxisEntry::Kind::kOrderBy:
      return slot;
    case AxisEntry::Kind::kLiteral:
      slot.used = true;
      slot.fixed = true;
      slot.value = e.literal;
      return slot;
    case AxisEntry::Kind::kDeclare: {
      std::vector<AxisValue> set = e.set;
      if (!e.named_set.empty()) {
        auto it = st->opts->named_sets.attr_sets.find(e.named_set);
        if (it == st->opts->named_sets.attr_sets.end()) {
          return Status::NotFound("unknown named attribute set: " +
                                  e.named_set);
        }
        for (const std::string& a : it->second) {
          set.push_back(AxisValue::Single(a));
        }
      }
      if (set.empty()) {
        return Status::InvalidArgument("empty axis set for " + e.var);
      }
      std::vector<std::vector<VarValue>> tuples;
      for (AxisValue& v : set) tuples.push_back({VarValue(std::move(v))});
      slot.used = true;
      slot.domain = RegisterDomain({e.var}, std::move(tuples), st);
      slot.pos = 0;
      return slot;
    }
    case AxisEntry::Kind::kReuse: {
      auto it = st->vars.find(e.var);
      if (it == st->vars.end()) {
        return Status::NotFound("unknown axis variable: " + e.var);
      }
      slot.used = true;
      slot.domain = it->second;
      slot.pos = slot.domain->PosOf(e.var);
      return slot;
    }
    case AxisEntry::Kind::kDerived:
      return Status::InvalidArgument(
          "derived binding (<- _) requires a derived component row");
  }
  return slot;
}

Result<Slot> ResolveZEntry(const ZEntry& e, ExecState* st) {
  Slot slot;
  switch (e.kind) {
    case ZEntry::Kind::kNone:
    case ZEntry::Kind::kOrderBy:
      return slot;
    case ZEntry::Kind::kLiteral:
      slot.used = true;
      slot.fixed = true;
      slot.value = e.literal;
      return slot;
    case ZEntry::Kind::kDeclare: {
      ZV_ASSIGN_OR_RETURN(std::vector<ZValue> zset, EvalZSet(*e.set, *st));
      // z1.v1 declarations bind the attribute to z1 and the value pair to
      // v1; single declarations bind the pair to the variable.
      std::vector<std::vector<VarValue>> tuples;
      for (ZValue& z : zset) {
        std::vector<VarValue> tuple;
        if (e.vars.size() == 2) {
          tuple.push_back(VarValue(AxisValue::Single(z.attr)));
        }
        tuple.push_back(VarValue(std::move(z)));
        tuples.push_back(std::move(tuple));
      }
      if (tuples.empty()) {
        return Status::InvalidArgument("empty Z set for " +
                                       Join(e.vars, "."));
      }
      slot.used = true;
      slot.domain = RegisterDomain(e.vars, std::move(tuples), st);
      slot.pos = static_cast<int>(e.vars.size()) - 1;
      return slot;
    }
    case ZEntry::Kind::kReuse: {
      auto it = st->vars.find(e.vars[0]);
      if (it == st->vars.end()) {
        return Status::NotFound("unknown Z variable: " + e.vars[0]);
      }
      slot.used = true;
      slot.domain = it->second;
      slot.pos = slot.domain->PosOf(e.vars[0]);
      return slot;
    }
    case ZEntry::Kind::kDerived:
      return Status::InvalidArgument(
          "derived binding (<- _) requires a derived component row");
  }
  return slot;
}

Result<Slot> ResolveVizEntry(const VizEntry& e, ExecState* st) {
  Slot slot;
  switch (e.kind) {
    case VizEntry::Kind::kNone:
      return slot;
    case VizEntry::Kind::kLiteral:
      slot.used = true;
      slot.fixed = true;
      slot.value = e.literal;
      return slot;
    case VizEntry::Kind::kDeclare: {
      std::vector<std::vector<VarValue>> tuples;
      for (const VizSpec& s : e.set) tuples.push_back({VarValue(s)});
      if (tuples.empty()) {
        return Status::InvalidArgument("empty viz set for " + e.var);
      }
      slot.used = true;
      slot.domain = RegisterDomain({e.var}, std::move(tuples), st);
      slot.pos = 0;
      return slot;
    }
    case VizEntry::Kind::kReuse: {
      auto it = st->vars.find(e.var);
      if (it == st->vars.end()) {
        return Status::NotFound("unknown viz variable: " + e.var);
      }
      slot.used = true;
      slot.domain = it->second;
      slot.pos = slot.domain->PosOf(e.var);
      return slot;
    }
  }
  return slot;
}

/// Substitutes `v.range` occurrences in constraints text with literal
/// value lists, e.g. `product IN (v2.range)` -> `product IN ('a', 'b')`.
Result<std::string> SubstituteRanges(const std::string& text,
                                     const ExecState& st) {
  std::string out;
  size_t copied = 0;  // text before this offset is already in `out`
  for (const ConstraintRange& ref : ConstraintRanges(text)) {
    out.append(text, copied, ref.begin - copied);
    copied = ref.end;
    const std::string& var = ref.var;
    auto it = st.vars.find(var);
    if (it == st.vars.end()) {
      return Status::NotFound("unknown variable in constraints: " + var);
    }
    const VarDomain& d = *it->second;
    const int pos = d.PosOf(var);
    std::vector<std::string> rendered;
    std::set<std::string> seen;
    for (const auto& tuple : d.tuples) {
      const VarValue& v = tuple[static_cast<size_t>(pos)];
      if (!std::holds_alternative<ZValue>(v)) {
        return Status::TypeMismatch(var + ".range is not a value set");
      }
      const Value& val = std::get<ZValue>(v).value;
      std::string lit =
          val.is_string() ? "'" + val.AsString() + "'" : val.ToString();
      if (seen.insert(lit).second) rendered.push_back(std::move(lit));
    }
    out += Join(rendered, ", ");
  }
  out.append(text, copied, std::string::npos);
  return out;
}

/// Applies rules-of-thumb defaults to a viz spec (§3.5).
Status ResolveSpecDefaults(const AxisValue& xv, const AxisValue& yv,
                           VizSpec* spec, const ExecState& st) {
  const int xc = st.table->schema().Find(xv.attrs[0]);
  const int yc = st.table->schema().Find(yv.attrs[0]);
  if (xc < 0) return Status::NotFound("unknown X attribute: " + xv.attrs[0]);
  if (yc < 0) return Status::NotFound("unknown Y attribute: " + yv.attrs[0]);
  const VizSpec def =
      DefaultVizSpec(st.table->column_type(static_cast<size_t>(xc)),
                     st.table->column_type(static_cast<size_t>(yc)));
  if (spec->chart == ChartType::kAuto) {
    spec->chart = def.chart;
    if (spec->y_agg == sql::AggFunc::kNone) spec->y_agg = def.y_agg;
  } else if (spec->y_agg == sql::AggFunc::kNone &&
             (spec->chart == ChartType::kBar ||
              spec->chart == ChartType::kLine ||
              spec->chart == ChartType::kDotPlot)) {
    spec->y_agg = def.y_agg;
  }
  // Binned x axes keep their y_agg: it applies per bin — engine-side when
  // the binning pushdown is active (BuildStatement), else in
  // viz/binning.cc over the raw fetch.
  return Status::OK();
}

Status BuildStatement(PendingFetch* pf, const std::string& constraints,
                      const ExecState& st) {
  sql::SelectStatement& stmt = pf->stmt;
  stmt.table = st.table_name;
  const bool binned = pf->spec.x_bin > 0;
  // Binning pushdown: a binned single-attribute numeric x axis can group
  // in the engine — GROUP BY the bin edge (SelectStatement::group_bins)
  // instead of fetching every raw row and re-aggregating client-side in
  // viz/binning.cc. Box charts always fetch raw (the five-number summary
  // needs every point), and categorical/composite x axes keep the client
  // binner, which knows how to skip non-numeric labels.
  bool push_bin = false;
  if (binned && st.opts->binning_pushdown &&
      pf->spec.chart != ChartType::kBox && pf->x_attrs.size() == 1) {
    const int xc = st.table->schema().Find(pf->x_attrs[0]);
    push_bin = xc >= 0 && st.table->column_type(static_cast<size_t>(xc)) !=
                              ColumnType::kCategorical;
  }
  pf->bin_pushed = push_bin;
  const bool aggregated = (pf->aggregated && !binned) || push_bin;
  // The client binner treats an unaggregated y as SUM-per-bin; the pushed
  // statement must aggregate the same way.
  const sql::AggFunc eff_agg =
      push_bin && pf->spec.y_agg == sql::AggFunc::kNone ? sql::AggFunc::kSum
                                                        : pf->spec.y_agg;

  for (const std::string& xa : pf->x_attrs) stmt.items.push_back({xa, {}});
  for (const std::string& za : pf->varying_z_attrs) {
    stmt.items.push_back({za, {}});
  }
  // Distinct y attributes across members' series; each series binds the
  // output column it reads.
  std::vector<std::string> y_attrs;
  for (auto& m : pf->members) {
    for (const Series& series : pf->comp->visuals[m.position].series) {
      const auto it = std::find(y_attrs.begin(), y_attrs.end(), series.name);
      m.y.push_back(stmt.items.size() + static_cast<size_t>(it - y_attrs.begin()));
      if (it == y_attrs.end()) y_attrs.push_back(series.name);
    }
  }
  for (const std::string& ya : y_attrs) {
    sql::SelectItem item;
    item.column = ya;
    item.agg = aggregated ? eff_agg : sql::AggFunc::kNone;
    stmt.items.push_back(std::move(item));
  }

  // WHERE: fixed z slots, IN-lists for varying z, plus constraints.
  std::vector<std::unique_ptr<sql::Expr>> conj;
  for (const ZValue& z : pf->fixed_z) {
    conj.push_back(sql::Expr::Compare(z.attr, sql::CompareOp::kEq, z.value));
  }
  for (size_t vi = 0; vi < pf->varying_z_attrs.size(); ++vi) {
    conj.push_back(
        sql::Expr::In(pf->varying_z_attrs[vi], pf->varying_z_values[vi]));
  }
  if (!constraints.empty()) {
    ZV_ASSIGN_OR_RETURN(auto expr, sql::ParseWhereExpr(constraints));
    conj.push_back(std::move(expr));
  }
  if (!conj.empty()) stmt.where = sql::Expr::And(std::move(conj));

  if (aggregated) {
    for (const std::string& xa : pf->x_attrs) stmt.group_by.push_back(xa);
    for (const std::string& za : pf->varying_z_attrs) {
      stmt.group_by.push_back(za);
    }
    if (push_bin) {
      // Bin width for the x key (position 0); z keys group plainly.
      stmt.group_bins.assign(stmt.group_by.size(), 0);
      stmt.group_bins[0] = pf->spec.x_bin;
    }
  }
  for (const std::string& za : pf->varying_z_attrs) {
    stmt.order_by.push_back({za, false});
  }
  for (const std::string& xa : pf->x_attrs) {
    stmt.order_by.push_back({xa, false});
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// ExecState
// ---------------------------------------------------------------------------

Status ExecState::Init(
    Database* db_in, std::string table_name_in, const ZqlOptions& opts_in,
    const std::map<std::string, Visualization>& user_inputs_in) {
  db = db_in;
  table_name = std::move(table_name_in);
  opts = &opts_in;
  user_inputs = &user_inputs_in;
  ZV_ASSIGN_OR_RETURN(table, db->GetTable(table_name));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FetchOp
// ---------------------------------------------------------------------------

Status PlanRowFetches(const ZqlRow& row, ExecState* st,
                      std::vector<PendingFetch>* out) {
  if (st->comps.count(row.name.name)) {
    return Status::AlreadyExists(StrFormat(
        "line %d: component '%s' is defined twice", row.line,
        row.name.name.c_str()));
  }
  ZV_ASSIGN_OR_RETURN(Slot x, ResolveAxisEntry(row.x, st));
  ZV_ASSIGN_OR_RETURN(Slot y, ResolveAxisEntry(row.y, st));
  ZV_ASSIGN_OR_RETURN(Slot viz, ResolveVizEntry(row.viz, st));
  std::vector<Slot> zslots;
  for (const ZEntry& z : row.zs) {
    ZV_ASSIGN_OR_RETURN(Slot s, ResolveZEntry(z, st));
    zslots.push_back(std::move(s));
  }
  if (!x.used || !y.used) {
    return Status::InvalidArgument(StrFormat(
        "line %d: rows must specify X and Y", row.line));
  }
  ZV_ASSIGN_OR_RETURN(std::string constraints,
                      SubstituteRanges(row.constraints, *st));
  // Every spelling of a fingerprint renders the same label.
  const std::string label = CanonicalConstraints(constraints);

  auto comp = std::make_shared<Component>();
  comp->name = row.name.name;

  // Collect unique domains in column order.
  std::vector<Slot*> slots = {&x, &y};
  for (Slot& s : zslots) slots.push_back(&s);
  slots.push_back(&viz);
  for (const Slot* s : slots) {
    if (!s->used || s->fixed) continue;
    if (std::find(comp->domains.begin(), comp->domains.end(), s->domain) ==
        comp->domains.end()) {
      comp->domains.push_back(s->domain);
    }
  }
  size_t total = 1;
  for (const auto& d : comp->domains) total *= d->size();
  comp->strides.assign(comp->domains.size(), 1);
  for (size_t i = comp->domains.size(); i-- > 1;) {
    comp->strides[i - 1] = comp->strides[i] * comp->domains[i]->size();
  }

  for (Slot* s : slots) {
    if (!s->used || s->fixed) continue;
    s->stride = comp->strides[static_cast<size_t>(
        std::find(comp->domains.begin(), comp->domains.end(), s->domain) -
        comp->domains.begin())];
  }

  const bool no_opt = st->opts->optimization == OptLevel::kNoOpt;

  // A used Z slot is fixed (a literal, a one-value domain, or any slot
  // under NoOpt) or varies across its fetch's members.
  std::vector<Slot*> zs;
  for (Slot& s : zslots) {
    if (!s.used) continue;
    zs.push_back(&s);
    s.varying = !(s.fixed || s.domain->size() == 1 || no_opt);
    if (!s.varying) continue;
    std::unordered_map<Value, uint32_t, ValueHash> index;
    std::vector<const std::string*> attrs;
    for (const auto& tuple : s.domain->tuples) {
      const ZValue& zv = std::get<ZValue>(tuple[static_cast<size_t>(s.pos)]);
      const auto [it, fresh] = index.try_emplace(
          zv.value, static_cast<uint32_t>(s.values.size()));
      if (fresh) s.values.push_back(zv.value);
      s.value_of_tuple.push_back(it->second);
      size_t a = 0;
      while (a < attrs.size() && *attrs[a] != zv.attr) ++a;
      if (a == attrs.size()) attrs.push_back(&zv.attr);
      s.attr_of_tuple.push_back(static_cast<uint32_t>(a));
    }
  }

  // Materialize visualization identities and build fetch groups. The group
  // key is a function of the x, y and viz tuples, the fixed Z tuples and
  // the varying Z attributes: one Shape per distinct combination of those
  // (under NoOpt, per position) builds it once. Equal keys still merge.
  struct Shape {
    PendingFetch* pf = nullptr;
    Visualization identity;  // x_attr, y_attr, constraints and spec
  };
  std::map<std::vector<size_t>, Shape> shapes;
  std::map<std::string, PendingFetch> groups;
  std::vector<size_t> signature;
  comp->visuals.resize(total);
  for (size_t p = 0; p < total; ++p) {
    signature = {x.Tuple(p), y.Tuple(p), viz.Tuple(p)};
    for (const Slot* z : zs) {
      const size_t t = z->Tuple(p);
      signature.push_back(z->varying ? z->attr_of_tuple[t] : t);
    }
    auto [shape_it, fresh] = shapes.try_emplace(signature);
    Shape& shape = shape_it->second;
    const AxisValue& yv = std::get<AxisValue>(y.At(p));
    if (fresh) {
      const AxisValue& xv = std::get<AxisValue>(x.At(p));
      VizSpec& spec = shape.identity.spec;
      if (viz.used) spec = std::get<VizSpec>(viz.At(p));
      ZV_RETURN_NOT_OK(ResolveSpecDefaults(xv, yv, &spec, *st));
      shape.identity.x_attr = xv.Label();
      shape.identity.y_attr = yv.Label();
      shape.identity.constraints = label;
      std::vector<std::string> key_parts = {xv.Label(), spec.ToString()};
      std::vector<ZValue> fixed_z;
      std::vector<std::string> varying_z_attrs;
      for (const Slot* z : zs) {
        const ZValue& zv = std::get<ZValue>(z->At(p));
        if (z->varying) {
          key_parts.push_back("?" + zv.attr);
          varying_z_attrs.push_back(zv.attr);
        } else {
          key_parts.push_back(zv.Label());
          fixed_z.push_back(zv);
        }
      }
      if (no_opt) key_parts.push_back(std::to_string(p));
      auto [it, inserted] = groups.try_emplace(JoinKey(key_parts));
      PendingFetch& pf = it->second;
      if (inserted) {
        pf.comp = comp;
        pf.spec = spec;
        pf.x_attrs = xv.attrs;
        pf.fixed_z = std::move(fixed_z);
        pf.varying_z_attrs = std::move(varying_z_attrs);
        pf.aggregated = spec.y_agg != sql::AggFunc::kNone;
        for (const Slot* z : zs) {
          if (z->varying) pf.varying_z_values.push_back(z->values);
        }
      }
      shape.pf = &pf;
    }

    Visualization& v = comp->visuals[p];
    v = shape.identity;
    PendingFetch::Member member{p, {}, {}};
    for (const Slot* z : zs) {
      const ZValue& zv = std::get<ZValue>(z->At(p));
      v.slices.push_back({zv.attr, zv.value});
      if (z->varying) member.z.push_back(z->value_of_tuple[z->Tuple(p)]);
    }
    for (const std::string& attr : yv.attrs) v.series.push_back({attr, {}});
    shape.pf->members.push_back(std::move(member));
  }

  // Build one SQL statement per group.
  for (auto& [key, pf] : groups) {
    ZV_RETURN_NOT_OK(BuildStatement(&pf, constraints, *st));
    out->push_back(std::move(pf));
  }
  st->comps[comp->name] = comp;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MaterializeOp: routing
// ---------------------------------------------------------------------------

Status RouteFetch(const PendingFetch& pf, const ColumnarResult& rs) {
  // Output columns, as BuildStatement lays them out: x, varying Z, y.
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  constexpr uint32_t kUnbound = kNone - 1;
  const size_t num_x = pf.x_attrs.size(), num_z = pf.varying_z_attrs.size();
  // Each row's index into each varying Z attribute's IN list (kNone: none
  // of it), found by Value ==, the equality the IN list selected the rows
  // by. A code column binds each distinct code once, then gathers by code;
  // a Value column (a non-categorical Z) binds each row.
  std::vector<std::vector<uint32_t>> row_z(num_z,
                                           std::vector<uint32_t>(rs.num_rows));
  for (size_t i = 0; i < num_z; ++i) {
    std::unordered_map<Value, uint32_t, ValueHash> in_list;
    for (const Value& v : pf.varying_z_values[i]) {
      in_list.emplace(v, in_list.size());
    }
    const ResultColumn& col = rs.columns[num_x + i];
    const bool coded = col.kind == ResultColumn::Kind::kCodes;
    std::vector<uint32_t> of_code(
        coded ? rs.table->DictSize(col.table_col) : 0, kUnbound);
    const auto bind = [&](size_t r) {
      const auto it = in_list.find(rs.At(num_x + i, r));
      return it == in_list.end() ? kNone : it->second;
    };
    for (size_t r = 0; r < rs.num_rows; ++r) {
      if (!coded) {
        row_z[i][r] = bind(r);
        continue;
      }
      uint32_t& z = of_code[static_cast<size_t>(col.codes[r])];
      if (z == kUnbound) z = bind(r);
      row_z[i][r] = z;
    }
  }

  // One member group per distinct Z tuple: the first attribute's IN-list
  // index, extended one attribute at a time through `extend`, which the
  // members fill and rows only probe (a row no member binds is skipped).
  uint32_t num_groups =
      num_z == 0 ? 1 : static_cast<uint32_t>(pf.varying_z_values[0].size());
  std::unordered_map<uint64_t, uint32_t> extend;
  const auto group_of = [&](const auto& z_at, bool add) {
    uint32_t group = num_z == 0 ? 0 : z_at(0);
    for (size_t i = 1; i < num_z && group != kNone; ++i) {
      const uint64_t key = uint64_t{group} << 32 | z_at(i);
      auto it = extend.find(key);
      if (add && it == extend.end()) {
        it = extend.emplace(key, num_groups++).first;
      }
      group = it == extend.end() ? kNone : it->second;
    }
    return group;
  };
  std::vector<std::vector<const PendingFetch::Member*>> group_members;
  for (const PendingFetch::Member& m : pf.members) {
    const uint32_t g = group_of([&](size_t i) { return m.z[i]; }, true);
    if (g >= group_members.size()) group_members.resize(g + 1);
    group_members[g].push_back(&m);
  }

  const auto y_at = [&rs](size_t yc, size_t r) {
    const ResultColumn& col = rs.columns[yc];
    return col.kind == ResultColumn::Kind::kDoubles ? col.doubles[r]
                                                    : rs.At(yc, r).AsDouble();
  };
  for (size_t r = 0; r < rs.num_rows; ++r) {
    const uint32_t g = group_of([&](size_t i) { return row_z[i][r]; }, false);
    if (g >= group_members.size() || group_members[g].empty()) continue;
    // X is the dictionary Value by code; a composite X renders its label,
    // the parts joined with '|'.
    Value xv = rs.At(0, r);
    if (num_x > 1) {
      std::string label = xv.ToString();
      for (size_t i = 1; i < num_x; ++i) label += "|" + rs.At(i, r).ToString();
      xv = Value::Str(std::move(label));
    }
    for (const PendingFetch::Member* m : group_members[g]) {
      Visualization& viz = pf.comp->visuals[m->position];
      viz.xs.push_back(xv);
      for (size_t si = 0; si < m->y.size(); ++si) {
        viz.series[si].ys.push_back(y_at(m->y[si], r));
      }
    }
  }
  // Client-side statistical transformations: bin(w) binning and box-plot
  // five-number summarization (both operate on raw fetched points).
  const bool client_bin = pf.spec.x_bin > 0 && !pf.bin_pushed;
  if (client_bin || pf.spec.chart == ChartType::kBox) {
    for (const PendingFetch::Member& m : pf.members) {
      Visualization& viz = pf.comp->visuals[m.position];
      if (client_bin) viz = BinVisualization(viz);
      if (pf.spec.chart == ChartType::kBox && !pf.aggregated) {
        viz = BoxPlotSummarize(viz);
      }
    }
  }
  return Status::OK();
}

void MarkReady(const ZqlRow& row, ExecState* st) {
  auto it = st->comps.find(row.name.name);
  if (it != st->comps.end()) it->second->ready = true;
}

// ---------------------------------------------------------------------------
// MaterializeOp: user-input + derived components (§3.6)
// ---------------------------------------------------------------------------

namespace {

Result<Component*> GetReadyComp(const std::string& name, int line,
                                ExecState* st) {
  auto it = st->comps.find(name);
  if (it == st->comps.end() || !it->second->ready) {
    return Status::NotFound(StrFormat(
        "line %d: component '%s' is not available", line, name.c_str()));
  }
  return it->second.get();
}

Status BuildOrdered(const ZqlRow& row, Component* source, Component* out,
                    ExecState* st) {
  // Collect ordering variables (entries suffixed with ->).
  std::vector<std::string> order_vars;
  auto collect_axis = [&order_vars](const AxisEntry& e) {
    if (e.kind == AxisEntry::Kind::kOrderBy) order_vars.push_back(e.var);
  };
  collect_axis(row.x);
  collect_axis(row.y);
  for (const ZEntry& z : row.zs) {
    if (z.kind == ZEntry::Kind::kOrderBy) order_vars.push_back(z.vars[0]);
  }
  if (order_vars.empty()) {
    return Status::InvalidArgument(StrFormat(
        "line %d: .order requires ordering variables (v ->)", row.line));
  }
  // All ordering vars must come from a single domain (declared together).
  std::shared_ptr<VarDomain> dom;
  for (const std::string& v : order_vars) {
    auto it = st->vars.find(v);
    if (it == st->vars.end()) {
      return Status::NotFound("unknown ordering variable: " + v);
    }
    if (dom && dom != it->second) {
      return Status::Unsupported(
          "ordering variables must be declared together");
    }
    dom = it->second;
  }
  // Match each ordered tuple to source visualizations.
  auto matches = [&](const Visualization& v,
                     const std::vector<VarValue>& tuple) {
    for (const std::string& var : order_vars) {
      const VarValue& want = tuple[static_cast<size_t>(dom->PosOf(var))];
      bool ok = false;
      if (std::holds_alternative<AxisValue>(want)) {
        const std::string label = std::get<AxisValue>(want).Label();
        ok = v.x_attr == label || v.y_attr == label;
      } else if (std::holds_alternative<ZValue>(want)) {
        const ZValue& z = std::get<ZValue>(want);
        for (const Slice& s : v.slices) {
          if (s.attribute == z.attr && s.value == z.value) {
            ok = true;
            break;
          }
        }
      } else {
        ok = v.spec == std::get<VizSpec>(want);
      }
      if (!ok) return false;
    }
    return true;
  };
  size_t matched_per_tuple = 0;
  bool uniform = true;
  for (const auto& tuple : dom->tuples) {
    size_t count = 0;
    for (const Visualization& v : source->visuals) {
      if (matches(v, tuple)) {
        out->visuals.push_back(v);
        ++count;
      }
    }
    if (matched_per_tuple == 0) matched_per_tuple = count;
    uniform &= count == matched_per_tuple;
  }
  // When the ordering is 1:1 the ordered component inherits the ordering
  // domain, so later rows can iterate it in sync.
  if (uniform && matched_per_tuple == 1 &&
      out->visuals.size() == dom->size()) {
    out->domains = {dom};
    out->strides = {1};
  }
  return Status::OK();
}

Status BuildDerived(const ZqlRow& row, ExecState* st) {
  const NameEntry& n = row.name;
  auto comp = std::make_shared<Component>();
  comp->name = n.name;

  ZV_ASSIGN_OR_RETURN(Component * a, GetReadyComp(n.source_a, row.line, st));
  Component* b = nullptr;
  if (!n.source_b.empty()) {
    ZV_ASSIGN_OR_RETURN(b, GetReadyComp(n.source_b, row.line, st));
  }

  auto contains = [](const std::vector<Visualization>& set,
                     const Visualization& v) {
    for (const auto& u : set) {
      if (u.SameSourceAs(v)) return true;
    }
    return false;
  };

  switch (n.derive) {
    case NameEntry::Derive::kPlus:
      comp->visuals = a->visuals;
      comp->visuals.insert(comp->visuals.end(), b->visuals.begin(),
                           b->visuals.end());
      break;
    case NameEntry::Derive::kMinus:
      for (const auto& v : a->visuals) {
        if (!contains(b->visuals, v)) comp->visuals.push_back(v);
      }
      break;
    case NameEntry::Derive::kIntersect:
      for (const auto& v : a->visuals) {
        if (contains(b->visuals, v)) comp->visuals.push_back(v);
      }
      break;
    case NameEntry::Derive::kIndex: {
      const int64_t i = n.index_a;
      if (i < 1 || static_cast<size_t>(i) > a->visuals.size()) {
        return Status::OutOfRange(StrFormat(
            "line %d: index %lld out of range", row.line,
            static_cast<long long>(i)));
      }
      comp->visuals = {a->visuals[static_cast<size_t>(i - 1)]};
      break;
    }
    case NameEntry::Derive::kSlice: {
      int64_t lo = std::max<int64_t>(1, n.index_a);
      int64_t hi = std::min<int64_t>(
          static_cast<int64_t>(a->visuals.size()), n.index_b);
      for (int64_t i = lo; i <= hi; ++i) {
        comp->visuals.push_back(a->visuals[static_cast<size_t>(i - 1)]);
      }
      break;
    }
    case NameEntry::Derive::kRange:
      for (const auto& v : a->visuals) {
        if (!contains(comp->visuals, v)) comp->visuals.push_back(v);
      }
      break;
    case NameEntry::Derive::kOrder: {
      ZV_RETURN_NOT_OK(BuildOrdered(row, a, comp.get(), st));
      break;
    }
    case NameEntry::Derive::kNone:
      return Status::Internal("BuildDerived on non-derived row");
  }

  // Derived variable bindings (§3.6): the axis columns may declare
  // variables that iterate over the derived component's visualizations.
  std::vector<std::string> derived_names;
  struct Proj {
    enum class Kind { kX, kY, kZ } kind;
    std::string attr;  // kZ: fixed attribute ('' = first slice)
  };
  std::vector<Proj> projs;
  if (row.x.kind == AxisEntry::Kind::kDerived) {
    derived_names.push_back(row.x.var);
    projs.push_back({Proj::Kind::kX, ""});
  }
  if (row.y.kind == AxisEntry::Kind::kDerived) {
    derived_names.push_back(row.y.var);
    projs.push_back({Proj::Kind::kY, ""});
  }
  for (const ZEntry& z : row.zs) {
    if (z.kind != ZEntry::Kind::kDerived) continue;
    derived_names.push_back(z.vars[0]);
    projs.push_back({Proj::Kind::kZ, z.derived_attr});
  }
  if (!derived_names.empty()) {
    std::vector<std::vector<VarValue>> tuples;
    for (const Visualization& v : comp->visuals) {
      std::vector<VarValue> tuple;
      for (const Proj& proj : projs) {
        switch (proj.kind) {
          case Proj::Kind::kX:
            tuple.push_back(VarValue(AxisValue::Single(v.x_attr)));
            break;
          case Proj::Kind::kY:
            tuple.push_back(VarValue(AxisValue::Single(v.y_attr)));
            break;
          case Proj::Kind::kZ: {
            const Slice* found = nullptr;
            for (const Slice& s : v.slices) {
              if (proj.attr.empty() || s.attribute == proj.attr) {
                found = &s;
                break;
              }
            }
            if (found == nullptr) {
              return Status::NotFound(StrFormat(
                  "line %d: derived Z binding: no slice on '%s'", row.line,
                  proj.attr.c_str()));
            }
            tuple.push_back(VarValue(ZValue{found->attribute, found->value}));
            break;
          }
        }
      }
      tuples.push_back(std::move(tuple));
    }
    comp->domains = {RegisterDomain(derived_names, std::move(tuples), st)};
    comp->strides = {1};
  }
  st->comps[comp->name] = comp;
  return Status::OK();
}

}  // namespace

Status MaterializeLocal(const ZqlRow& row, ExecState* st) {
  if (st->comps.count(row.name.name)) {
    return Status::AlreadyExists(StrFormat(
        "line %d: component '%s' is defined twice", row.line,
        row.name.name.c_str()));
  }
  if (row.name.user_input) {
    auto it = st->user_inputs->find(row.name.name);
    if (it == st->user_inputs->end()) {
      return Status::NotFound(StrFormat(
          "line %d: no user input registered for -%s", row.line,
          row.name.name.c_str()));
    }
    auto comp = std::make_shared<Component>();
    comp->name = row.name.name;
    comp->visuals = {it->second};
    st->comps[comp->name] = comp;
    return Status::OK();
  }
  return BuildDerived(row, st);
}

// ---------------------------------------------------------------------------
// ScoreOp / ReduceOp (§3.8)
// ---------------------------------------------------------------------------

namespace {

using Env = std::map<const VarDomain*, size_t>;

Result<const Visualization*> ResolveVisual(const std::string& comp_name,
                                           const Env& env, ExecState* st) {
  auto it = st->comps.find(comp_name);
  if (it == st->comps.end() || !it->second->ready) {
    return Status::NotFound("component not available in process: " +
                            comp_name);
  }
  const Component& c = *it->second;
  if (c.visuals.empty()) {
    return Status::InvalidArgument("component is empty: " + comp_name);
  }
  size_t p = 0;
  for (size_t di = 0; di < c.domains.size(); ++di) {
    auto env_it = env.find(c.domains[di].get());
    if (env_it != env.end()) {
      p += c.strides[di] * env_it->second;
    } else if (c.domains[di]->size() != 1) {
      return Status::InvalidArgument(
          StrFormat("component '%s' iterates over a variable not bound in "
                    "this process",
                    comp_name.c_str()));
    }
  }
  return &c.visuals[p];
}

Result<double> EvalExpr(const ProcessExpr& e, Env& env, ExecState* st) {
  if (e.kind == ProcessExpr::Kind::kReduce) {
    // Iterate the reducer's domains.
    std::vector<std::shared_ptr<VarDomain>> doms;
    for (const std::string& v : e.reduce_vars) {
      auto it = st->vars.find(v);
      if (it == st->vars.end()) {
        return Status::NotFound("unknown reducer variable: " + v);
      }
      if (std::find(doms.begin(), doms.end(), it->second) == doms.end()) {
        doms.push_back(it->second);
      }
    }
    size_t total = 1;
    for (const auto& d : doms) total *= d->size();
    if (total == 0) return Status::InvalidArgument("empty reducer domain");
    double acc = 0;
    bool first = true;
    for (size_t i = 0; i < total; ++i) {
      // A reducer hides an O(domain) scan inside one scored combination,
      // so the per-combination cancel polls alone could lag by the whole
      // inner loop; poll here too.
      ZV_RETURN_NOT_OK(CheckCancelled());
      size_t rem = i;
      for (size_t di = doms.size(); di-- > 0;) {
        env[doms[di].get()] = rem % doms[di]->size();
        rem /= doms[di]->size();
      }
      ZV_ASSIGN_OR_RETURN(double v, EvalExpr(*e.child, env, st));
      if (first) {
        acc = v;
        first = false;
      } else {
        switch (e.reduce) {
          case ProcessExpr::Reduce::kMin:
            acc = std::min(acc, v);
            break;
          case ProcessExpr::Reduce::kMax:
            acc = std::max(acc, v);
            break;
          case ProcessExpr::Reduce::kSum:
            acc += v;
            break;
        }
      }
    }
    for (const auto& d : doms) env.erase(d.get());
    return acc;
  }
  // Calls.
  if (e.func == "T") {
    if (e.args.size() != 1) {
      return Status::InvalidArgument("T takes one component");
    }
    ZV_ASSIGN_OR_RETURN(const Visualization* f,
                        ResolveVisual(e.args[0], env, st));
    return st->opts->tasks.trend(*f);
  }
  if (e.func == "D") {
    if (e.args.size() != 2) {
      return Status::InvalidArgument("D takes two components");
    }
    ZV_ASSIGN_OR_RETURN(const Visualization* f,
                        ResolveVisual(e.args[0], env, st));
    ZV_ASSIGN_OR_RETURN(const Visualization* g,
                        ResolveVisual(e.args[1], env, st));
    if (st->scoring_ctx != nullptr) {
      auto fi = st->scoring_index.find(f);
      auto gi = st->scoring_index.find(g);
      if (fi != st->scoring_index.end() && gi != st->scoring_index.end()) {
        return st->scoring_ctx->PairDistance(
            fi->second, gi->second, st->opts->tasks.default_options.metric);
      }
    }
    return st->opts->tasks.distance(*f, *g);
  }
  auto it = st->opts->user_functions.find(e.func);
  if (it == st->opts->user_functions.end()) {
    return Status::NotFound("unknown process function: " + e.func);
  }
  std::vector<const Visualization*> args;
  for (const std::string& a : e.args) {
    ZV_ASSIGN_OR_RETURN(const Visualization* f, ResolveVisual(a, env, st));
    args.push_back(f);
  }
  return it->second(args);
}

/// True when every call in the expression tree is a default primitive —
/// the precondition for scoring combinations on pool workers. User
/// process functions and custom trend/distance hooks may capture mutable
/// state and are never called concurrently.
bool ExprParallelSafe(const ProcessExpr& e, const ExecState& st) {
  if (e.kind == ProcessExpr::Kind::kReduce) {
    return e.child == nullptr || ExprParallelSafe(*e.child, st);
  }
  if (e.func == "T") return st.opts->tasks.trend_is_default;
  if (e.func == "D") return st.opts->tasks.distance_is_default;
  return false;  // user function: unknown thread-safety
}

/// Collects the component names appearing as D(f, g) arguments anywhere
/// in a process expression tree.
void CollectDComponents(const ProcessExpr& e, std::set<std::string>* out) {
  if (e.kind == ProcessExpr::Kind::kReduce) {
    if (e.child) CollectDComponents(*e.child, out);
    return;
  }
  if (e.func == "D") {
    for (const std::string& a : e.args) out->insert(a);
  }
}

/// Builds — or reuses — the shared ScoringContext for one process
/// declaration: every visualization of every component referenced by a
/// D() call is aligned and normalized exactly once, instead of once per
/// scored pair. Only active when the task library's distance is the
/// default one (a custom distance must keep being called per pair).
///
/// A context lives for one query. Within it, two Process declarations
/// whose D() calls cover the same component set — e.g. an argmin and an
/// argmax over one (x, y, z) config — share one context, keyed by the
/// sorted component names (ExecState::query_contexts). The pool is
/// rebuilt here in that set's order either way, so scoring_index maps
/// this declaration's Visualization pointers onto the shared rows.
void PrepareScoring(const ProcessDecl& decl, ExecState* st) {
  st->scoring_ctx.reset();
  st->scoring_index.clear();
  if (!st->opts->tasks.distance_is_default || decl.expr == nullptr) return;
  std::set<std::string> dcomps;
  CollectDComponents(*decl.expr, &dcomps);
  if (dcomps.empty()) return;
  std::vector<const Visualization*> pool;
  for (const std::string& name : dcomps) {
    auto it = st->comps.find(name);
    if (it == st->comps.end() || !it->second->ready) return;  // EvalExpr errors
    for (const Visualization& v : it->second->visuals) {
      if (st->scoring_index.emplace(&v, pool.size()).second) {
        pool.push_back(&v);
      }
    }
  }
  if (pool.empty()) return;
  std::shared_ptr<const ScoringContext>& ctx = st->query_contexts[dcomps];
  if (ctx != nullptr) {
    ++st->stats.contexts_reused;
  } else {
    const TaskOptions& topts = st->opts->tasks.default_options;
    ctx = std::make_shared<const ScoringContext>(pool, topts.normalization,
                                                 topts.alignment);
  }
  st->scoring_ctx = ctx;
}

/// True when `decl` can take the top-k pruned scan: an argmin mechanism
/// with a [k=n] filter (and no threshold — thresholds need every exact
/// score), whose expression is a bare D(f, g) call scored through the
/// shared ScoringContext. argmax cannot prune at the kernel level: a
/// growing partial distance lower-bounds the final value, which proves
/// "too far" (argmin rejects) but never "not far enough" (argmax needs
/// an upper bound). Pruning with fewer than k candidates is vacuous, so
/// k >= total short-circuits to the plain scan.
bool PrunableTopK(const ProcessDecl& decl, size_t total, const ExecState& st) {
  if (!st.opts->topk_pruning || st.scoring_ctx == nullptr) return false;
  if (decl.kind != ProcessDecl::Kind::kMechanism ||
      decl.mech != Mechanism::kArgMin) {
    return false;
  }
  if (!decl.filter.k.has_value() || decl.filter.t_above.has_value() ||
      decl.filter.t_below.has_value()) {
    return false;
  }
  if (static_cast<size_t>(*decl.filter.k) >= total) return false;
  const ProcessExpr* e = decl.expr.get();
  return e != nullptr && e->kind == ProcessExpr::Kind::kCall &&
         e->func == "D" && e->args.size() == 2;
}

/// The top-k pruned scan: scores every combination like the plain loop,
/// but shares the running k-th best distance (SharedTopK's relaxed
/// atomic bound, which only ever tightens) across workers and hands it to
/// the early-termination kernels. Abandoned combinations record +inf in
/// their slot — each is provably outside the final top k, so
/// ApplyMechanism still selects exactly the candidates (in exactly the
/// order) the full scan would, at any ZV_THREADS.
/// Always runs under ParallelForStatus: PrunableTopK requires an active
/// ScoringContext (default distance) and a bare D(f, g) call, which is
/// exactly what makes ExprParallelSafe true — and ZV_THREADS=1 already
/// runs the loop inline on the calling thread.
Status ScorePrunedTopK(const ProcessDecl& decl,
                       const std::vector<std::shared_ptr<VarDomain>>& doms,
                       size_t total, std::vector<double>* scores,
                       ExecState* st) {
  const size_t k = std::min(total, static_cast<size_t>(*decl.filter.k));
  const DistanceMetric metric = st->opts->tasks.default_options.metric;
  SharedTopK topk(k, TopKOrder::kAscending);
  std::atomic<uint64_t> pruned{0};
  auto score_one = [&](size_t i) -> Status {
    // Per-combination cancellation poll: one DTW pair on a long series
    // can take milliseconds, so chunk-boundary checks alone would make
    // Cancel() latency proportional to the chunk size.
    ZV_RETURN_NOT_OK(CheckCancelled());
    Env env;
    size_t rem = i;
    for (size_t di = doms.size(); di-- > 0;) {
      env[doms[di].get()] = rem % doms[di]->size();
      rem /= doms[di]->size();
    }
    ZV_ASSIGN_OR_RETURN(const Visualization* f,
                        ResolveVisual(decl.expr->args[0], env, st));
    ZV_ASSIGN_OR_RETURN(const Visualization* g,
                        ResolveVisual(decl.expr->args[1], env, st));
    const auto fi = st->scoring_index.find(f);
    const auto gi = st->scoring_index.find(g);
    if (fi == st->scoring_index.end() || gi == st->scoring_index.end()) {
      // PrepareScoring pools every D() component, so this is unreachable;
      // score exactly rather than fail if it ever regresses.
      (*scores)[i] = st->opts->tasks.distance(*f, *g);
      topk.Offer((*scores)[i], i);
      return Status::OK();
    }
    const double bound = topk.bound();
    const double d = st->scoring_ctx->PairDistanceBounded(
        fi->second, gi->second, metric, bound);
    (*scores)[i] = d;
    // +inf under a finite bound = kernel abandoned; under an infinite
    // bound no abandonment is possible, so +inf is the exact distance
    // and still competes (and must not count as pruned).
    if (std::isinf(d) && !std::isinf(bound)) {
      pruned.fetch_add(1, std::memory_order_relaxed);
    } else {
      topk.Offer(d, i);
    }
    return Status::OK();
  };
  const Status scored = ParallelForStatus(total, score_one);
  st->stats.scores_pruned += pruned.load(std::memory_order_relaxed);
  return scored;
}

Status ScoreRepresentative(const ProcessDecl& decl, ExecState* st,
                           ScoreResult* out) {
  for (const std::string& v : decl.repr_vars) {
    auto it = st->vars.find(v);
    if (it == st->vars.end()) {
      return Status::NotFound("unknown R variable: " + v);
    }
    if (std::find(out->doms.begin(), out->doms.end(), it->second) ==
        out->doms.end()) {
      out->doms.push_back(it->second);
    }
  }
  if (decl.outputs.size() != decl.repr_vars.size()) {
    return Status::InvalidArgument(
        "R output count must match its variable count");
  }
  size_t total = 1;
  for (const auto& d : out->doms) total *= d->size();
  std::vector<const Visualization*> visuals;
  Env env;
  for (size_t i = 0; i < total; ++i) {
    size_t rem = i;
    for (size_t di = out->doms.size(); di-- > 0;) {
      env[out->doms[di].get()] = rem % out->doms[di]->size();
      rem /= out->doms[di]->size();
    }
    ZV_ASSIGN_OR_RETURN(const Visualization* f,
                        ResolveVisual(decl.repr_component, env, st));
    visuals.push_back(f);
  }
  out->chosen = st->opts->tasks.representatives(
      visuals, static_cast<size_t>(decl.repr_k));
  // The default representatives implementation runs k-means over void
  // ParallelFor, which stops early under cancellation — discard its
  // output rather than bind variables to a partial clustering.
  ZV_RETURN_NOT_OK(CheckCancelled());
  return Status::OK();
}

/// Binds output variables: the i-th output variable receives the i-th
/// iteration variable's values at the selected combinations (§3.8).
void BindOutputs(const std::vector<std::string>& iter_vars,
                 const std::vector<std::string>& outputs,
                 const std::vector<std::shared_ptr<VarDomain>>& doms,
                 const std::vector<size_t>& selected, ExecState* st) {
  std::vector<std::vector<VarValue>> tuples;
  for (size_t sel : selected) {
    std::vector<VarValue> tuple;
    size_t rem = sel;
    std::map<const VarDomain*, size_t> idx;
    for (size_t di = doms.size(); di-- > 0;) {
      idx[doms[di].get()] = rem % doms[di]->size();
      rem /= doms[di]->size();
    }
    for (const std::string& v : iter_vars) {
      const auto& dom = st->vars.at(v);
      const int pos = dom->PosOf(v);
      tuple.push_back(
          dom->tuples[idx.at(dom.get())][static_cast<size_t>(pos)]);
    }
    tuples.push_back(std::move(tuple));
  }
  RegisterDomain(outputs, std::move(tuples), st);
}

}  // namespace

Status ScoreProcess(const ProcessDecl& decl, ExecState* st, ScoreResult* out) {
  const auto t0 = SteadyNow();
  if (decl.kind == ProcessDecl::Kind::kRepresentative) {
    const Status s = ScoreRepresentative(decl, st, out);
    st->stats.score_ms += MsSince(t0);
    return s;
  }
  // Iteration domains, deduplicated in declaration order.
  for (const std::string& v : decl.iter_vars) {
    auto it = st->vars.find(v);
    if (it == st->vars.end()) {
      return Status::NotFound("unknown iteration variable: " + v);
    }
    if (std::find(out->doms.begin(), out->doms.end(), it->second) ==
        out->doms.end()) {
      out->doms.push_back(it->second);
    }
  }
  const std::vector<std::shared_ptr<VarDomain>>& doms = out->doms;
  size_t total = 1;
  for (const auto& d : doms) total *= d->size();
  if (total == 0) return Status::InvalidArgument("empty iteration domain");

  PrepareScoring(decl, st);
  // Score the flattened Cartesian domain. When every call in the
  // expression is a default primitive (stateless, thread-safe), fan the
  // combinations over the pool: shared state — vars, comps, the scoring
  // context — is read-only here and each combination writes only its own
  // scores[i] slot, so results are byte-identical at any ZV_THREADS and
  // errors surface as the lowest combination index, exactly like the
  // serial loop. Custom trend/distance implementations and user process
  // functions carry no thread-safety contract, so expressions using them
  // keep the serial loop.
  //
  // argmin[k=n] over a bare D(f, g) additionally takes the top-k pruned
  // scan (ScorePrunedTopK): same slots, same selected set, but candidates
  // provably outside the top k abandon their distance kernel early.
  std::vector<double>& scores = out->scores;
  scores.assign(total, 0.0);
  auto score_one = [&](size_t i) -> Status {
    ZV_RETURN_NOT_OK(CheckCancelled());  // per-combination cancel poll
    Env env;
    size_t rem = i;
    for (size_t di = doms.size(); di-- > 0;) {
      env[doms[di].get()] = rem % doms[di]->size();
      rem /= doms[di]->size();
    }
    ZV_ASSIGN_OR_RETURN(scores[i], EvalExpr(*decl.expr, env, st));
    return Status::OK();
  };
  Status scored = Status::OK();
  if (PrunableTopK(decl, total, *st)) {
    scored = ScorePrunedTopK(decl, doms, total, &scores, st);
  } else if (ExprParallelSafe(*decl.expr, *st)) {
    scored = ParallelForStatus(total, score_one);
  } else {
    for (size_t i = 0; i < total && scored.ok(); ++i) scored = score_one(i);
  }
  st->scoring_ctx.reset();
  st->scoring_index.clear();
  st->stats.score_ms += MsSince(t0);
  return scored;
}

Status ReduceProcess(const ProcessDecl& decl, ScoreResult&& scored,
                     ExecState* st) {
  if (decl.kind == ProcessDecl::Kind::kRepresentative) {
    BindOutputs(decl.repr_vars, decl.outputs, scored.doms, scored.chosen, st);
    return Status::OK();
  }
  const std::vector<size_t> selected =
      ApplyMechanism(decl.mech, scored.scores, decl.filter);
  BindOutputs(decl.iter_vars, decl.outputs, scored.doms, selected, st);
  return Status::OK();
}

}  // namespace zv::zql::exec
