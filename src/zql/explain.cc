#include "zql/explain.h"

#include <map>
#include <set>

#include "common/strings.h"
#include "tasks/simd.h"
#include "zql/canonical.h"

namespace zv::zql {

namespace {

void CollectRangeVars(const ZSetExpr& e, std::set<std::string>* out) {
  switch (e.kind) {
    case ZSetExpr::Kind::kVarRange:
      out->insert(e.var);
      break;
    case ZSetExpr::Kind::kOp:
      CollectRangeVars(*e.lhs, out);
      CollectRangeVars(*e.rhs, out);
      break;
    default:
      break;
  }
}

void CollectExprComponents(const ProcessExpr& e, std::set<std::string>* out) {
  if (e.kind == ProcessExpr::Kind::kCall) {
    for (const auto& a : e.args) out->insert(a);
  } else if (e.child) {
    CollectExprComponents(*e.child, out);
  }
}

void CollectExprFuncs(const ProcessExpr& e, std::set<std::string>* out) {
  if (e.kind == ProcessExpr::Kind::kCall) {
    out->insert(e.func);
  } else if (e.child) {
    CollectExprFuncs(*e.child, out);
  }
}

}  // namespace

/// How the default task library scores this declaration: D() calls go
/// through the shared ScoringContext (one alignment pass, parallel scan),
/// and an argmin[k=n] over a bare D(f, g) additionally takes the top-k
/// pruned scan with early-terminating kernels. Anything calling a
/// non-default function is scored serially, one pair at a time.
std::string DescribeTaskScoring(const ProcessDecl& p) {
  if (p.kind == ProcessDecl::Kind::kRepresentative) {
    return StrFormat("R k=%lld: k-means medoids",
                     static_cast<long long>(p.repr_k));
  }
  std::set<std::string> funcs;
  if (p.expr) CollectExprFuncs(*p.expr, &funcs);
  bool user_fn = false;
  for (const std::string& f : funcs) user_fn |= f != "T" && f != "D";
  if (user_fn) return "user fn: serial per-pair scoring";
  if (funcs.count("D")) {
    std::string out = "D: ScoringContext batch scan";
    const bool bare_d = p.expr->kind == ProcessExpr::Kind::kCall &&
                        p.expr->args.size() == 2;
    if (bare_d && p.mech == Mechanism::kArgMin && p.filter.k.has_value() &&
        !p.filter.t_above.has_value() && !p.filter.t_below.has_value()) {
      out += StrFormat(", top-k pruned k=%lld",
                       static_cast<long long>(*p.filter.k));
    }
    // The active distance-kernel tier (tasks/simd.h runtime dispatch) —
    // constant per process, but EXPLAIN consumers comparing latency across
    // machines need to know which kernel produced the numbers.
    out += StrFormat(", kernel=%s", simd::LevelName(simd::ActiveLevel()));
    return out;
  }
  if (funcs.count("T")) return "T: parallel trend scan";
  return "";
}

Result<QueryPlan> ExplainQuery(const ZqlQuery& query) {
  QueryPlan plan;
  plan.rows.reserve(query.rows.size());

  for (const ZqlRow& row : query.rows) {
    QueryPlan::RowInfo info;
    info.name = row.name.name;
    info.has_task = !row.processes.empty();
    info.derived = row.name.derive != NameEntry::Derive::kNone;
    info.user_input = row.name.user_input;

    std::set<std::string> consumes, declares, comps;
    auto axis = [&](const AxisEntry& e) {
      if (e.kind == AxisEntry::Kind::kReuse ||
          e.kind == AxisEntry::Kind::kOrderBy) {
        consumes.insert(e.var);
      } else if (e.kind == AxisEntry::Kind::kDeclare ||
                 e.kind == AxisEntry::Kind::kDerived) {
        declares.insert(e.var);
      }
    };
    axis(row.x);
    axis(row.y);
    for (const ZEntry& z : row.zs) {
      switch (z.kind) {
        case ZEntry::Kind::kReuse:
        case ZEntry::Kind::kOrderBy:
          consumes.insert(z.vars[0]);
          break;
        case ZEntry::Kind::kDeclare:
          for (const auto& v : z.vars) declares.insert(v);
          if (z.set) CollectRangeVars(*z.set, &consumes);
          break;
        case ZEntry::Kind::kDerived:
          for (const auto& v : z.vars) declares.insert(v);
          break;
        default:
          break;
      }
    }
    if (row.viz.kind == VizEntry::Kind::kReuse) consumes.insert(row.viz.var);
    else if (row.viz.kind == VizEntry::Kind::kDeclare)
      declares.insert(row.viz.var);
    for (const ConstraintRange& r : ConstraintRanges(row.constraints)) {
      consumes.insert(r.var);
    }

    if (!row.name.source_a.empty()) comps.insert(row.name.source_a);
    if (!row.name.source_b.empty()) comps.insert(row.name.source_b);

    for (const ProcessDecl& p : row.processes) {
      for (const auto& v : p.iter_vars) {
        if (!declares.count(v)) consumes.insert(v);
      }
      for (const auto& v : p.repr_vars) {
        if (!declares.count(v)) consumes.insert(v);
      }
      if (!p.repr_component.empty()) comps.insert(p.repr_component);
      if (p.expr) CollectExprComponents(*p.expr, &comps);
      for (const auto& o : p.outputs) info.task_outputs.push_back(o);
      info.task_scoring.push_back(DescribeTaskScoring(p));
    }
    comps.erase(row.name.name);

    info.consumes_vars.assign(consumes.begin(), consumes.end());
    info.declares_vars.assign(declares.begin(), declares.end());
    info.consumes_components.assign(comps.begin(), comps.end());
    plan.rows.push_back(std::move(info));
  }

  // Wavefront schedule: a row is placed in the earliest wave where all
  // consumed variables are statically declared (any wave <= current) or
  // produced by a task in a strictly earlier wave, and all consumed
  // components come from the same or earlier waves.
  std::map<std::string, int> var_available_after;  // wave index
  std::map<std::string, int> comp_available_in;
  std::vector<int> assigned(plan.rows.size(), -1);
  int wave = 0;
  size_t placed = 0;
  while (placed < plan.rows.size()) {
    bool progress = false;
    // Statically declared vars of rows placed in this wave become usable
    // within the wave itself (Figure 5.1's f2-independent-of-t1 property).
    for (size_t i = 0; i < plan.rows.size(); ++i) {
      if (assigned[i] >= 0) continue;
      bool ok = true;
      for (const std::string& v : plan.rows[i].consumes_vars) {
        auto it = var_available_after.find(v);
        if (it == var_available_after.end() || it->second > wave) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const std::string& c : plan.rows[i].consumes_components) {
          auto it = comp_available_in.find(c);
          if (it == comp_available_in.end() || it->second > wave) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) continue;
      assigned[i] = wave;
      plan.rows[i].wave = wave;
      comp_available_in[plan.rows[i].name] = wave;
      for (const std::string& v : plan.rows[i].declares_vars) {
        var_available_after[v] = wave;  // usable within the wave
      }
      for (const std::string& v : plan.rows[i].task_outputs) {
        var_available_after[v] = wave + 1;  // usable after the task runs
      }
      progress = true;
      ++placed;
    }
    if (!progress) {
      return Status::InvalidArgument(
          "unresolvable ZQL dependencies (circular or undefined variables)");
    }
    ++wave;
  }
  plan.num_waves = wave;
  return plan;
}

std::string QueryPlan::ToString() const {
  std::string out =
      StrFormat("query tree (%d wave%s):\n", num_waves,
                num_waves == 1 ? "" : "s");
  for (const RowInfo& row : rows) {
    out += StrFormat("  %-6s [wave %d]%s%s", row.name.c_str(), row.wave,
                     row.derived ? " derived" : "",
                     row.user_input ? " user-input" : "");
    if (!row.consumes_vars.empty()) {
      out += " <- vars{" + Join(row.consumes_vars, ", ") + "}";
    }
    if (!row.consumes_components.empty()) {
      out += " <- comps{" + Join(row.consumes_components, ", ") + "}";
    }
    if (row.has_task) {
      out += "  task -> {" + Join(row.task_outputs, ", ") + "}";
      std::vector<std::string> notes;
      for (const std::string& note : row.task_scoring) {
        if (!note.empty()) notes.push_back(note);
      }
      if (!notes.empty()) out += " [" + Join(notes, "; ") + "]";
    }
    out += "\n";
  }
  return out;
}

}  // namespace zv::zql
