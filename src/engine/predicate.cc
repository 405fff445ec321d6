#include "engine/predicate.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/strings.h"

namespace zv {

namespace {

using sql::CompareOp;
using sql::Expr;

bool CompareValues(const Value& lhs, CompareOp op, const Value& rhs) {
  const int c = lhs.Compare(rhs);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

bool LeafPredicateAccepts(const sql::Expr& expr, const Value& v) {
  switch (expr.kind) {
    case Expr::Kind::kCompare:
      return CompareValues(v, expr.op, expr.value);
    case Expr::Kind::kBetween:
      return v >= expr.values[0] && v <= expr.values[1];
    case Expr::Kind::kLike:
      return v.is_string() && LikeMatch(v.AsString(), expr.value.AsString());
    default:
      return false;
  }
}

/// Row ids of a contiguous batch: row i is begin + i.
struct DenseRows {
  uint32_t begin;
  uint32_t operator[](uint32_t i) const { return begin + i; }
};

/// Row ids of a candidate batch.
struct IdRows {
  const uint32_t* ids;
  uint32_t operator[](uint32_t i) const { return ids[i]; }
};

/// m[i] = test(the column's value at row rows[i], as double) for i < n.
template <typename T, typename Rows, typename Test>
void FillMask(const T* __restrict col, Rows rows, uint32_t n,
              uint8_t* __restrict m, Test test) {
  for (uint32_t i = 0; i < n; ++i) {
    m[i] = test(static_cast<double>(col[rows[i]]));
  }
}

}  // namespace

std::vector<uint8_t> CategoricalAcceptSet(const Table& table, size_t col,
                                          const sql::Expr& leaf) {
  const size_t dict_size = table.DictSize(col);
  std::vector<uint8_t> accept(dict_size, 0);
  const bool by_equality =
      leaf.kind == Expr::Kind::kIn ||
      (leaf.kind == Expr::Kind::kCompare &&
       (leaf.op == CompareOp::kEq || leaf.op == CompareOp::kNe));
  if (by_equality && table.DictOrderStrict(col)) {
    const std::vector<int32_t>& by_rank = table.DictCodesByRank(col);
    const auto mark = [&](const Value& v) {
      const auto [lo, hi] = table.EqualRankRange(col, v);
      for (size_t r = lo; r < hi; ++r) {
        accept[static_cast<size_t>(by_rank[r])] = 1;
      }
    };
    if (leaf.kind == Expr::Kind::kIn) {
      for (const Value& v : leaf.values) mark(v);
    } else {
      mark(leaf.value);
    }
    if (leaf.kind == Expr::Kind::kCompare && leaf.op == CompareOp::kNe) {
      for (uint8_t& a : accept) a ^= 1;
    }
    return accept;
  }
  // No strict order (a NaN in the dictionary): test each value, so the
  // answer is exactly Value::Compare's, however inconsistent.
  for (size_t code = 0; code < dict_size; ++code) {
    const Value& v = table.DictValue(col, static_cast<int32_t>(code));
    if (leaf.kind == Expr::Kind::kIn) {
      for (const Value& candidate : leaf.values) accept[code] |= v == candidate;
    } else {
      accept[code] = LeafPredicateAccepts(leaf, v);
    }
  }
  return accept;
}

Result<CompiledPredicate> CompiledPredicate::Compile(const Table& table,
                                                     const sql::Expr& expr) {
  // Recursive lowering: each subtree leaves its mask in the slot it is
  // given, so a connective's operands after the first use one slot more.
  struct Lowerer {
    CompiledPredicate* cp;
    const Table& table;

    void Emit(Step step, uint32_t slot) {
      step.slot = slot;
      cp->num_slots_ = std::max(cp->num_slots_, slot + 1);
      cp->steps_.push_back(std::move(step));
    }

    /// Folds `count` operands, each lowered by lower(i, slot), into `slot`
    /// with `op`; no operands fill `slot` with op's identity (AND: every
    /// row, OR: none).
    Status Fold(Step::Kind op, size_t count, uint32_t slot,
                const std::function<Status(size_t, uint32_t)>& lower) {
      if (count == 0) {
        Step fill;
        fill.fill = op == Step::Kind::kAnd;
        Emit(std::move(fill), slot);
        return Status::OK();
      }
      for (size_t i = 0; i < count; ++i) {
        ZV_RETURN_NOT_OK(lower(i, i == 0 ? slot : slot + 1));
        if (i > 0) {
          Step combine;
          combine.kind = op;
          Emit(std::move(combine), slot);
        }
      }
      return Status::OK();
    }

    Status Lower(const Expr& e, uint32_t slot) {
      switch (e.kind) {
        case Expr::Kind::kAnd:
        case Expr::Kind::kOr:
          return Fold(
              e.kind == Expr::Kind::kAnd ? Step::Kind::kAnd : Step::Kind::kOr,
              e.children.size(), slot, [&](size_t i, uint32_t s) {
                return Lower(*e.children[i], s);
              });
        case Expr::Kind::kNot: {
          ZV_RETURN_NOT_OK(Lower(*e.children[0], slot));
          Step flip;
          flip.kind = Step::Kind::kNot;
          Emit(std::move(flip), slot);
          return Status::OK();
        }
        default:
          return LowerLeaf(e, slot);
      }
    }

    Status LowerLeaf(const Expr& e, uint32_t slot) {
      const int found = table.schema().Find(e.column);
      if (found < 0) {
        return Status::NotFound(StrFormat("unknown column '%s' in predicate",
                                          e.column.c_str()));
      }
      const size_t col = static_cast<size_t>(found);
      Step leaf;
      switch (table.column_type(col)) {
        case ColumnType::kCategorical:
          leaf.kind = Step::Kind::kCodes;
          leaf.codes = table.CategoricalColumn(col).data();
          leaf.accept = CategoricalAcceptSet(table, col, e);
          Emit(std::move(leaf), slot);
          return Status::OK();
        case ColumnType::kDouble:
          leaf.kind = Step::Kind::kDouble;
          leaf.doubles = table.DoubleColumn(col).data();
          break;
        case ColumnType::kInt:
          leaf.kind = Step::Kind::kInt;
          leaf.ints = table.IntColumn(col).data();
          break;
      }
      // A measure leaf is `v op constant`: BETWEEN lowers to v >= lo AND
      // v <= hi, IN to an OR of equalities (an empty list selects nothing).
      const auto compare = [&](CompareOp op, const Value& c, uint32_t s) {
        Step cmp = leaf;
        cmp.op = op;
        cmp.constant = c.AsDouble();
        Emit(std::move(cmp), s);
        return Status::OK();
      };
      switch (e.kind) {
        case Expr::Kind::kCompare:
          if (!e.value.is_numeric()) {
            return Status::TypeMismatch(
                StrFormat("column '%s' is numeric but compared to '%s'",
                          e.column.c_str(), e.value.ToString().c_str()));
          }
          return compare(e.op, e.value, slot);
        case Expr::Kind::kBetween:
          if (!e.values[0].is_numeric() || !e.values[1].is_numeric()) {
            return Status::TypeMismatch("BETWEEN bounds must be numeric");
          }
          return Fold(Step::Kind::kAnd, 2, slot, [&](size_t i, uint32_t s) {
            return i == 0 ? compare(CompareOp::kGe, e.values[0], s)
                          : compare(CompareOp::kLe, e.values[1], s);
          });
        case Expr::Kind::kIn:
          for (const Value& v : e.values) {
            if (!v.is_numeric()) {
              return Status::TypeMismatch("IN list over numeric column");
            }
          }
          return Fold(Step::Kind::kOr, e.values.size(), slot,
                      [&](size_t i, uint32_t s) {
                        return compare(CompareOp::kEq, e.values[i], s);
                      });
        case Expr::Kind::kLike:
          return Status::TypeMismatch(
              StrFormat("LIKE requires a categorical column, '%s' is numeric",
                        e.column.c_str()));
        default:
          return Status::Internal("unexpected leaf kind");
      }
    }
  };

  CompiledPredicate cp;
  Lowerer lowerer{&cp, table};
  ZV_RETURN_NOT_OK(lowerer.Lower(expr, 0));
  return cp;
}

template <typename Rows>
void CompiledPredicate::Select(Rows rows, uint32_t n,
                               PredicateScratch* scratch,
                               std::vector<uint32_t>* out) const {
  if (steps_.empty()) {  // no WHERE: every row
    const size_t old = out->size();
    out->resize(old + n);
    uint32_t* dst = out->data() + old;
    for (uint32_t i = 0; i < n; ++i) dst[i] = rows[i];
    return;
  }
  const size_t mask_bytes = size_t{num_slots_} * kPredicateBatchRows;
  if (scratch->masks_.size() < mask_bytes) {
    scratch->masks_.resize(mask_bytes);
    scratch->ids_.resize(kPredicateBatchRows);
  }
  uint8_t* const masks = scratch->masks_.data();
  for (const Step& step : steps_) {
    uint8_t* __restrict m = masks + size_t{step.slot} * kPredicateBatchRows;
    const uint8_t* __restrict next = m + kPredicateBatchRows;
    // Measure leaves: the comparison is chosen once, outside the loop, and
    // is exactly the IEEE operator the SQL names.
    const auto test_column = [&](const auto* col) {
      const double c = step.constant;
      switch (step.op) {
        case CompareOp::kEq:
          return FillMask(col, rows, n, m, [c](double v) { return v == c; });
        case CompareOp::kNe:
          return FillMask(col, rows, n, m, [c](double v) { return v != c; });
        case CompareOp::kLt:
          return FillMask(col, rows, n, m, [c](double v) { return v < c; });
        case CompareOp::kLe:
          return FillMask(col, rows, n, m, [c](double v) { return v <= c; });
        case CompareOp::kGt:
          return FillMask(col, rows, n, m, [c](double v) { return v > c; });
        case CompareOp::kGe:
          return FillMask(col, rows, n, m, [c](double v) { return v >= c; });
      }
    };
    switch (step.kind) {
      case Step::Kind::kDouble:
        test_column(step.doubles);
        break;
      case Step::Kind::kInt:
        test_column(step.ints);
        break;
      case Step::Kind::kCodes: {
        const int32_t* codes = step.codes;
        const uint8_t* accept = step.accept.data();
        for (uint32_t i = 0; i < n; ++i) m[i] = accept[codes[rows[i]]];
        break;
      }
      case Step::Kind::kAnd:
        for (uint32_t i = 0; i < n; ++i) m[i] &= next[i];
        break;
      case Step::Kind::kOr:
        for (uint32_t i = 0; i < n; ++i) m[i] |= next[i];
        break;
      case Step::Kind::kNot:
        for (uint32_t i = 0; i < n; ++i) m[i] ^= 1;
        break;
      case Step::Kind::kFill:
        std::memset(m, step.fill, n);
        break;
    }
  }
  // Branch-free compaction of slot 0's survivors.
  uint32_t* const ids = scratch->ids_.data();
  size_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    ids[kept] = rows[i];
    kept += masks[i];
  }
  out->insert(out->end(), ids, ids + kept);
}

void CompiledPredicate::SelectBatch(uint32_t begin, uint32_t n,
                                    PredicateScratch* scratch,
                                    std::vector<uint32_t>* out) const {
  Select(DenseRows{begin}, n, scratch, out);
}

void CompiledPredicate::SelectCandidates(const uint32_t* ids, uint32_t n,
                                         PredicateScratch* scratch,
                                         std::vector<uint32_t>* out) const {
  Select(IdRows{ids}, n, scratch, out);
}

Status SelectRange(const CompiledPredicate& pred, uint32_t begin,
                   uint32_t end, std::vector<uint32_t>* out) {
  PredicateScratch scratch;
  return ForEachBatch(begin, end, [&](uint32_t lo, uint32_t n) {
    pred.SelectBatch(lo, n, &scratch, out);
  });
}

}  // namespace zv
