#include "engine/predicate.h"

#include <algorithm>

#include "common/cancel.h"
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

bool CompareDoubles(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
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
  CompiledPredicate cp;
  cp.table_ = &table;

  // Recursive lowering returning node index or a Status error.
  struct Lowerer {
    CompiledPredicate* cp;
    const Table& table;
    Status error;

    int Lower(const Expr& e) {  // returns -1 on error
      if (!error.ok()) return -1;
      switch (e.kind) {
        case Expr::Kind::kAnd:
        case Expr::Kind::kOr:
        case Expr::Kind::kNot: {
          Node node;
          node.kind = e.kind == Expr::Kind::kAnd  ? Node::Kind::kAnd
                      : e.kind == Expr::Kind::kOr ? Node::Kind::kOr
                                                  : Node::Kind::kNot;
          for (const auto& child : e.children) {
            const int idx = Lower(*child);
            if (idx < 0) return -1;
            node.children.push_back(idx);
          }
          cp->nodes_.push_back(std::move(node));
          return static_cast<int>(cp->nodes_.size() - 1);
        }
        default:
          return LowerLeaf(e);
      }
    }

    int LowerLeaf(const Expr& e) {
      const int col = table.schema().Find(e.column);
      if (col < 0) {
        error = Status::NotFound(StrFormat("unknown column '%s' in predicate",
                                           e.column.c_str()));
        return -1;
      }
      const ColumnType type = table.column_type(static_cast<size_t>(col));
      Node node;
      node.col = col;
      if (type == ColumnType::kCategorical) {
        node.kind = Node::Kind::kCatAccept;
        node.accept =
            CategoricalAcceptSet(table, static_cast<size_t>(col), e);
        cp->nodes_.push_back(std::move(node));
        return static_cast<int>(cp->nodes_.size() - 1);
      }
      // Measure column.
      cp->categorical_only_ = false;
      switch (e.kind) {
        case Expr::Kind::kCompare:
          if (!e.value.is_numeric()) {
            error = Status::TypeMismatch(
                StrFormat("column '%s' is numeric but compared to '%s'",
                          e.column.c_str(), e.value.ToString().c_str()));
            return -1;
          }
          node.kind = Node::Kind::kNumCompare;
          node.op = e.op;
          node.lhs_lo = e.value.AsDouble();
          break;
        case Expr::Kind::kBetween:
          if (!e.values[0].is_numeric() || !e.values[1].is_numeric()) {
            error = Status::TypeMismatch("BETWEEN bounds must be numeric");
            return -1;
          }
          node.kind = Node::Kind::kNumBetween;
          node.lhs_lo = e.values[0].AsDouble();
          node.lhs_hi = e.values[1].AsDouble();
          break;
        case Expr::Kind::kIn: {
          // Lower IN over a measure column to an OR of equalities.
          Node or_node;
          or_node.kind = Node::Kind::kOr;
          for (const Value& v : e.values) {
            if (!v.is_numeric()) {
              error = Status::TypeMismatch("IN list over numeric column");
              return -1;
            }
            Node eq;
            eq.kind = Node::Kind::kNumCompare;
            eq.col = col;
            eq.op = CompareOp::kEq;
            eq.lhs_lo = v.AsDouble();
            cp->nodes_.push_back(std::move(eq));
            or_node.children.push_back(static_cast<int>(cp->nodes_.size() - 1));
          }
          cp->nodes_.push_back(std::move(or_node));
          return static_cast<int>(cp->nodes_.size() - 1);
        }
        case Expr::Kind::kLike:
          error = Status::TypeMismatch(
              StrFormat("LIKE requires a categorical column, '%s' is numeric",
                        e.column.c_str()));
          return -1;
        default:
          error = Status::Internal("unexpected leaf kind");
          return -1;
      }
      cp->nodes_.push_back(std::move(node));
      return static_cast<int>(cp->nodes_.size() - 1);
    }
  };

  Lowerer lowerer{&cp, table, Status::OK()};
  cp.root_ = lowerer.Lower(expr);
  if (!lowerer.error.ok()) return lowerer.error;
  return cp;
}

bool CompiledPredicate::TestNode(int idx, size_t row) const {
  const Node& node = nodes_[static_cast<size_t>(idx)];
  switch (node.kind) {
    case Node::Kind::kAnd:
      for (int child : node.children) {
        if (!TestNode(child, row)) return false;
      }
      return true;
    case Node::Kind::kOr:
      for (int child : node.children) {
        if (TestNode(child, row)) return true;
      }
      return false;
    case Node::Kind::kNot:
      return !TestNode(node.children[0], row);
    case Node::Kind::kCatAccept: {
      const int32_t code = table_->Code(row, static_cast<size_t>(node.col));
      return node.accept[static_cast<size_t>(code)] != 0;
    }
    case Node::Kind::kNumCompare:
      return CompareDoubles(
          table_->NumericAt(row, static_cast<size_t>(node.col)), node.op,
          node.lhs_lo);
    case Node::Kind::kNumBetween: {
      const double v = table_->NumericAt(row, static_cast<size_t>(node.col));
      return v >= node.lhs_lo && v <= node.lhs_hi;
    }
  }
  return false;
}

Status SelectRange(const CompiledPredicate* pred, uint32_t begin,
                   uint32_t end, std::vector<uint32_t>* out) {
  for (uint32_t lo = begin; lo < end;) {
    ZV_RETURN_NOT_OK(CheckCancelled());
    const uint32_t hi = static_cast<uint32_t>(std::min<uint64_t>(
        end, static_cast<uint64_t>(lo) + kScanCancelPollRows));
    if (pred != nullptr) {
      for (uint32_t row = lo; row < hi; ++row) {
        if (pred->Test(row)) out->push_back(row);
      }
    } else {
      for (uint32_t row = lo; row < hi; ++row) out->push_back(row);
    }
    lo = hi;
  }
  return Status::OK();
}

}  // namespace zv
