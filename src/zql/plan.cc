#include "zql/plan.h"

#include <set>
#include <utility>

#include "common/strings.h"
#include "zql/canonical.h"
#include "zql/explain.h"

namespace zv::zql {

namespace {

// --- dependency analysis (pure; mirrors the executor's runtime rules) ------

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

/// Variables a row consumes from earlier rows: axis/Z/viz reuse and
/// order-by references, Z-set .range references, constraints ranges, and
/// process iteration/reducer variables the row does not declare itself.
std::set<std::string> RowVarDeps(const ZqlRow& row) {
  std::set<std::string> deps;
  auto axis = [&deps](const AxisEntry& e) {
    if (e.kind == AxisEntry::Kind::kReuse ||
        e.kind == AxisEntry::Kind::kOrderBy) {
      deps.insert(e.var);
    }
  };
  axis(row.x);
  axis(row.y);
  for (const ZEntry& z : row.zs) {
    if (z.kind == ZEntry::Kind::kReuse || z.kind == ZEntry::Kind::kOrderBy) {
      deps.insert(z.vars[0]);
    } else if (z.kind == ZEntry::Kind::kDeclare && z.set) {
      CollectRangeVars(*z.set, &deps);
    }
  }
  if (row.viz.kind == VizEntry::Kind::kReuse) deps.insert(row.viz.var);
  for (const ConstraintRange& r : ConstraintRanges(row.constraints)) {
    deps.insert(r.var);
  }
  // Process iteration variables that are not declared by this row itself.
  std::set<std::string> own;
  auto own_axis = [&own](const AxisEntry& e) {
    if (e.kind == AxisEntry::Kind::kDeclare ||
        e.kind == AxisEntry::Kind::kDerived) {
      own.insert(e.var);
    }
  };
  own_axis(row.x);
  own_axis(row.y);
  for (const ZEntry& z : row.zs) {
    if (z.kind == ZEntry::Kind::kDeclare || z.kind == ZEntry::Kind::kDerived) {
      for (const auto& v : z.vars) own.insert(v);
    }
  }
  if (row.viz.kind == VizEntry::Kind::kDeclare) own.insert(row.viz.var);
  for (const ProcessDecl& p : row.processes) {
    for (const auto& v : p.iter_vars) {
      if (!own.count(v)) deps.insert(v);
    }
    for (const auto& v : p.repr_vars) {
      if (!own.count(v)) deps.insert(v);
    }
    // Inner reducer variables.
    std::vector<const ProcessExpr*> stack;
    if (p.expr) stack.push_back(p.expr.get());
    while (!stack.empty()) {
      const ProcessExpr* e = stack.back();
      stack.pop_back();
      if (e->kind == ProcessExpr::Kind::kReduce) {
        for (const auto& v : e->reduce_vars) {
          if (!own.count(v)) deps.insert(v);
        }
        if (e->child) stack.push_back(e->child.get());
      }
    }
    for (const auto& o : p.outputs) own.insert(o);
  }
  return deps;
}

/// Components a row reads: derivation sources and process-call arguments.
std::set<std::string> RowCompDeps(const ZqlRow& row) {
  std::set<std::string> deps;
  if (!row.name.source_a.empty()) deps.insert(row.name.source_a);
  if (!row.name.source_b.empty()) deps.insert(row.name.source_b);
  for (const ProcessDecl& p : row.processes) {
    if (!p.repr_component.empty()) deps.insert(p.repr_component);
    std::vector<const ProcessExpr*> stack;
    if (p.expr) stack.push_back(p.expr.get());
    while (!stack.empty()) {
      const ProcessExpr* e = stack.back();
      stack.pop_back();
      if (e->kind == ProcessExpr::Kind::kCall) {
        for (const auto& a : e->args) deps.insert(a);
      } else if (e->child) {
        stack.push_back(e->child.get());
      }
    }
  }
  deps.erase(row.name.name);  // a row's own component is fine
  return deps;
}

/// Variables a row binds without needing any task output: axis/viz
/// declarations always, Z declarations only when their set expression's
/// .range references are themselves resolved (`bound`) or statically
/// declared earlier in the wave (`wave_declares`).
std::set<std::string> RowStaticDeclares(
    const ZqlRow& row, const std::set<std::string>& bound,
    const std::set<std::string>& wave_declares) {
  std::set<std::string> out;
  auto axis = [&out](const AxisEntry& e) {
    if (e.kind == AxisEntry::Kind::kDeclare) out.insert(e.var);
  };
  axis(row.x);
  axis(row.y);
  if (row.viz.kind == VizEntry::Kind::kDeclare) out.insert(row.viz.var);
  for (const ZEntry& z : row.zs) {
    if (z.kind != ZEntry::Kind::kDeclare || !z.set) continue;
    std::set<std::string> ranges;
    CollectRangeVars(*z.set, &ranges);
    bool static_ok = true;
    for (const std::string& v : ranges) {
      if (!bound.count(v) && !wave_declares.count(v)) {
        static_ok = false;
        break;
      }
    }
    if (static_ok) {
      for (const std::string& v : z.vars) out.insert(v);
    }
  }
  return out;
}

/// Every variable a row's execution eventually binds: planning-time
/// declarations (axis/Z/viz declares + derived bindings) and task outputs.
std::set<std::string> RowAllBindings(const ZqlRow& row) {
  std::set<std::string> out;
  auto axis = [&out](const AxisEntry& e) {
    if (e.kind == AxisEntry::Kind::kDeclare ||
        e.kind == AxisEntry::Kind::kDerived) {
      out.insert(e.var);
    }
  };
  axis(row.x);
  axis(row.y);
  for (const ZEntry& z : row.zs) {
    if (z.kind == ZEntry::Kind::kDeclare || z.kind == ZEntry::Kind::kDerived) {
      for (const auto& v : z.vars) out.insert(v);
    }
  }
  if (row.viz.kind == VizEntry::Kind::kDeclare) out.insert(row.viz.var);
  for (const ProcessDecl& p : row.processes) {
    for (const auto& o : p.outputs) out.insert(o);
  }
  return out;
}

/// The Inter-Task wavefront: batches every row whose dependencies are
/// satisfied — or statically declared by an earlier row of the same wave —
/// into one wave (Figure 5.1's maximal batching). Mirrors the executor's
/// runtime selection exactly, so the plan's waves are the waves that run.
Result<std::vector<std::vector<int>>> ComputeWaves(const ZqlQuery& query) {
  std::set<std::string> bound;  // variables bound by completed waves
  std::set<std::string> ready;  // components materialized by completed waves
  std::vector<int> remaining;
  for (size_t i = 0; i < query.rows.size(); ++i) {
    remaining.push_back(static_cast<int>(i));
  }
  std::vector<std::vector<int>> waves;
  while (!remaining.empty()) {
    std::vector<int> wave;
    std::set<std::string> wave_comps;
    std::set<std::string> wave_declares;
    std::vector<int> next;
    for (int ri : remaining) {
      const ZqlRow& row = query.rows[static_cast<size_t>(ri)];
      bool ok = true;
      for (const std::string& v : RowVarDeps(row)) {
        if (!bound.count(v) && !wave_declares.count(v)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const std::string& c : RowCompDeps(row)) {
          if (!ready.count(c) && !wave_comps.count(c)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        wave.push_back(ri);
        wave_comps.insert(row.name.name);
        for (const std::string& v :
             RowStaticDeclares(row, bound, wave_declares)) {
          wave_declares.insert(v);
        }
      } else {
        next.push_back(ri);
      }
    }
    if (wave.empty()) {
      return Status::InvalidArgument(StrFormat(
          "unresolvable ZQL dependencies at row %d",
          query.rows[static_cast<size_t>(remaining[0])].line));
    }
    for (int ri : wave) {
      const ZqlRow& row = query.rows[static_cast<size_t>(ri)];
      for (const std::string& v : RowAllBindings(row)) bound.insert(v);
      ready.insert(row.name.name);
    }
    waves.push_back(std::move(wave));
    remaining = std::move(next);
  }
  return waves;
}

/// Step emission with flush-delimited stage numbering: a flush closes the
/// current stage's fetch section; the next FetchOp opens a new stage.
class PlanEmitter {
 public:
  explicit PlanEmitter(PhysicalPlan* plan) : plan_(plan) {}

  void Fetch(int row) {
    if (flush_pending_ && emitted_in_stage_) {
      ++stage_;
      emitted_in_stage_ = false;
    }
    flush_pending_ = false;
    Emit({PlanStep::Kind::kFetch, row, -1, stage_});
  }
  void Flush() {
    plan_->steps.push_back({PlanStep::Kind::kFlush, -1, -1, stage_});
    flush_pending_ = true;
  }
  void Materialize(int row) {
    Emit({PlanStep::Kind::kMaterialize, row, -1, stage_});
  }
  void Process(int row, const ZqlRow& r) {
    for (size_t d = 0; d < r.processes.size(); ++d) {
      Emit({PlanStep::Kind::kScore, row, static_cast<int>(d), stage_});
      Emit({PlanStep::Kind::kReduce, row, static_cast<int>(d), stage_});
    }
  }
  void Output() {
    plan_->num_stages = emitted_in_stage_ ? stage_ + 1 : stage_;
    plan_->steps.push_back(
        {PlanStep::Kind::kOutput, -1, -1, plan_->num_stages});
  }

 private:
  void Emit(PlanStep step) {
    plan_->steps.push_back(step);
    emitted_in_stage_ = true;
  }

  PhysicalPlan* plan_;
  int stage_ = 0;
  bool emitted_in_stage_ = false;
  bool flush_pending_ = false;
};

}  // namespace

Result<PhysicalPlan> BuildPhysicalPlan(const ZqlQuery& query,
                                       const ZqlOptions& options) {
  PhysicalPlan plan;
  plan.optimization = options.optimization;
  PlanEmitter emit(&plan);

  if (options.optimization == OptLevel::kInterTask) {
    ZV_ASSIGN_OR_RETURN(std::vector<std::vector<int>> waves,
                        ComputeWaves(query));
    plan.wave_of_row.assign(query.rows.size(), 0);
    for (size_t w = 0; w < waves.size(); ++w) {
      for (int ri : waves[w]) {
        plan.wave_of_row[static_cast<size_t>(ri)] = static_cast<int>(w);
        if (!IsLocalRow(query.rows[static_cast<size_t>(ri)])) emit.Fetch(ri);
      }
      emit.Flush();
      for (int ri : waves[w]) {
        const ZqlRow& row = query.rows[static_cast<size_t>(ri)];
        emit.Materialize(ri);
        emit.Process(ri, row);
      }
    }
  } else {
    // Sequential levels: flush before user-input/derived rows (their
    // sources must be materialized), after every row at NoOpt/Intra-Line,
    // and before any row's tasks run (Intra-Task batches the fetches of
    // consecutive task-less rows into the next task row's request).
    for (size_t i = 0; i < query.rows.size(); ++i) {
      const ZqlRow& row = query.rows[i];
      const int ri = static_cast<int>(i);
      if (IsLocalRow(row)) {
        emit.Flush();
      } else {
        emit.Fetch(ri);
      }
      const bool flush_now =
          options.optimization == OptLevel::kNoOpt ||
          options.optimization == OptLevel::kIntraLine ||
          !row.processes.empty() || i + 1 == query.rows.size();
      if (flush_now) emit.Flush();
      emit.Materialize(ri);
      emit.Process(ri, row);
    }
  }
  emit.Output();
  return plan;
}

std::string PhysicalPlan::Render(const ZqlQuery& query,
                                 size_t table_chunks) const {
  std::string out = StrFormat("physical plan: opt=%s, %d stage%s\n",
                              OptLevelToString(optimization), num_stages,
                              num_stages == 1 ? "" : "s");
  int printed_stage = -1;
  for (const PlanStep& step : steps) {
    if (step.kind == PlanStep::Kind::kFlush) continue;
    if (step.kind == PlanStep::Kind::kOutput) {
      std::vector<std::string> names;
      for (const std::string& n : query.OutputNames()) names.push_back("*" + n);
      out += StrFormat("%-15s%s\n", "OutputOp",
                       names.empty() ? "(no outputs)" : Join(names, ", ").c_str());
      continue;
    }
    if (step.stage != printed_stage) {
      printed_stage = step.stage;
      out += StrFormat("stage %d:\n", printed_stage);
    }
    const ZqlRow& row = query.rows[static_cast<size_t>(step.row)];
    const std::string name = CanonicalNameEntry(row.name);
    switch (step.kind) {
      case PlanStep::Kind::kFetch: {
        std::string detail = optimization == OptLevel::kNoOpt
                                 ? "one scan per viz"
                                 : "batched scan";
        // Every row selection is a chunk pass over the table's chunks;
        // whether a pass is shared depends on run-time co-tenancy.
        if (table_chunks > 0) {
          detail += StrFormat(", chunks=%zu", table_chunks);
        }
        out += StrFormat("  %-15s%s  [%s]\n", "FetchOp", name.c_str(),
                         detail.c_str());
        break;
      }
      case PlanStep::Kind::kMaterialize:
        out += StrFormat("  %-15s%s%s\n", "MaterializeOp", name.c_str(),
                         row.name.user_input
                             ? "  [user input]"
                             : (row.name.derive != NameEntry::Derive::kNone
                                    ? "  [derived]"
                                    : ""));
        break;
      case PlanStep::Kind::kScore: {
        const ProcessDecl& decl =
            row.processes[static_cast<size_t>(step.decl)];
        const std::string note = DescribeTaskScoring(decl);
        out += StrFormat("  %-15s%s: %s%s\n", "ScoreOp", name.c_str(),
                         CanonicalProcessCell({decl}).c_str(),
                         note.empty() ? "" : ("  [" + note + "]").c_str());
        break;
      }
      case PlanStep::Kind::kReduce: {
        const ProcessDecl& decl =
            row.processes[static_cast<size_t>(step.decl)];
        out += StrFormat("  %-15s%s -> {%s}\n", "ReduceOp", name.c_str(),
                         Join(decl.outputs, ", ").c_str());
        break;
      }
      default:
        break;
    }
  }
  return out;
}

}  // namespace zv::zql
