#include "engine/select_runner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/cancel.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "engine/predicate.h"

namespace zv {

using sql::AggFunc;
using sql::SelectStatement;

namespace {

/// Target rows per block and the cap on the block count. The block count
/// derived from these is a pure function of the table size.
constexpr size_t kScanBlockRows = 16384;
constexpr size_t kMaxScanBlocks = 32;

/// The table's blocks: `count` contiguous row ranges.
struct BlockGrid {
  explicit BlockGrid(size_t num_rows)
      : rows(num_rows),
        count(std::min(kMaxScanBlocks,
                       std::max<size_t>(1, num_rows / kScanBlockRows))) {}
  uint32_t begin(size_t b) const {
    return static_cast<uint32_t>(rows * b / count);
  }
  /// Block b's rows [first, last) out of `parts`: a span of the one part
  /// holding them all, or — when the block straddles a part boundary —
  /// their concatenation, gathered into `scratch`.
  std::pair<const uint32_t*, const uint32_t*> Rows(
      const std::vector<std::vector<uint32_t>>& parts, size_t b,
      std::vector<uint32_t>* scratch) const {
    std::pair<const uint32_t*, const uint32_t*> span{nullptr, nullptr};
    scratch->clear();
    for (const std::vector<uint32_t>& part : parts) {
      if (part.empty() || part.back() < begin(b)) continue;
      if (part.front() >= begin(b + 1)) break;
      const uint32_t* end = part.data() + part.size();
      const uint32_t* first = std::lower_bound(part.data(), end, begin(b));
      const uint32_t* last = std::lower_bound(first, end, begin(b + 1));
      if (span.first == nullptr) {
        span = {first, last};
        continue;
      }
      if (scratch->empty()) scratch->assign(span.first, span.second);
      scratch->insert(scratch->end(), first, last);
    }
    if (scratch->empty()) return span;
    return {scratch->data(), scratch->data() + scratch->size()};
  }
  size_t rows;
  size_t count;
};

/// Dense group spaces wider than this always take the wide layout.
constexpr uint64_t kWideLayoutGroups = 1u << 15;
/// A dense group space this many times narrower than a block's rows folds
/// per block; anything wider takes the wide layout.
constexpr uint64_t kReplicaRowsPerGroup = 4;

}  // namespace

Result<SelectRunner> SelectRunner::Plan(const Table& table,
                                        const SelectStatement& stmt) {
  SelectRunner r;
  r.table_ = &table;
  for (const auto& item : stmt.items) r.columns_.push_back(item.DisplayName());
  r.order_by_ = stmt.order_by;
  r.limit_ = stmt.limit;

  bool any_agg = false;
  for (const auto& item : stmt.items) any_agg |= item.is_aggregate();
  r.aggregation_ = any_agg || !stmt.group_by.empty();

  // Resolve group-by columns.
  if (!stmt.group_bins.empty() &&
      stmt.group_bins.size() != stmt.group_by.size()) {
    return Status::InvalidArgument(
        "group_bins must parallel group_by when present");
  }
  for (size_t gi = 0; gi < stmt.group_by.size(); ++gi) {
    const std::string& g = stmt.group_by[gi];
    const int col = table.schema().Find(g);
    if (col < 0) {
      return Status::NotFound(
          StrFormat("unknown GROUP BY column '%s'", g.c_str()));
    }
    const double bin = gi < stmt.group_bins.size() ? stmt.group_bins[gi] : 0;
    if (bin < 0 || bin != bin) {
      return Status::InvalidArgument(
          StrFormat("invalid bin width for GROUP BY column '%s'", g.c_str()));
    }
    r.group_cols_.push_back(col);
    r.group_bin_widths_.push_back(bin);
    r.group_codes_.push_back(nullptr);
    if (bin > 0) {
      // Binned keys carry computed Value tuples, so they always take the
      // generic path regardless of the column's physical type.
      if (table.column_type(static_cast<size_t>(col)) ==
          ColumnType::kCategorical) {
        return Status::InvalidArgument(StrFormat(
            "binned GROUP BY column '%s' must be numeric", g.c_str()));
      }
      r.groups_categorical_ = false;
      r.group_dict_sizes_.push_back(0);
    } else if (table.column_type(static_cast<size_t>(col)) ==
               ColumnType::kCategorical) {
      r.group_dict_sizes_.push_back(table.DictSize(static_cast<size_t>(col)));
      r.group_codes_.back() =
          table.CategoricalColumn(static_cast<size_t>(col)).data();
    } else {
      r.groups_categorical_ = false;
      r.group_dict_sizes_.push_back(0);
    }
  }
  if (r.groups_categorical_) {
    r.total_groups_ = 1;
    for (uint64_t d : r.group_dict_sizes_) {
      if (d == 0) d = 1;
      if (r.total_groups_ > kDenseGroupLimit) break;
      r.total_groups_ *= d;
    }
    r.dense_ = r.total_groups_ <= kDenseGroupLimit;
    // Suffix products: stride of position i is the product of the dict
    // sizes after it, mirroring DenseKey's mixed-radix packing.
    r.group_strides_.assign(r.group_cols_.size(), 1);
    for (size_t i = r.group_cols_.size(); i-- > 1;) {
      r.group_strides_[i - 1] =
          r.group_strides_[i] * r.group_dict_sizes_[i];
    }
  }

  // Resolve select items.
  for (const auto& item : stmt.items) {
    ItemPlan plan;
    plan.is_agg = item.is_aggregate();
    plan.agg = item.agg;
    if (plan.is_agg) {
      plan.agg_slot = r.num_aggs_++;
      if (item.column == "*") {
        if (item.agg != AggFunc::kCount) {
          return Status::InvalidArgument("only COUNT accepts *");
        }
        plan.col = -1;
      } else {
        plan.col = table.schema().Find(item.column);
        if (plan.col < 0) {
          return Status::NotFound(
              StrFormat("unknown column '%s'", item.column.c_str()));
        }
        const size_t c = static_cast<size_t>(plan.col);
        switch (table.column_type(c)) {
          case ColumnType::kDouble:
            plan.dptr = table.DoubleColumn(c).data();
            break;
          case ColumnType::kInt:
            plan.iptr = table.IntColumn(c).data();
            break;
          case ColumnType::kCategorical:
            break;  // slow path via NumericAt
        }
      }
    } else {
      plan.col = table.schema().Find(item.column);
      if (plan.col < 0) {
        return Status::NotFound(
            StrFormat("unknown column '%s'", item.column.c_str()));
      }
      if (r.aggregation_) {
        // Bare columns under aggregation must be group keys.
        for (size_t i = 0; i < r.group_cols_.size(); ++i) {
          if (r.group_cols_[i] == plan.col) {
            plan.group_pos = static_cast<int>(i);
            break;
          }
        }
        if (plan.group_pos < 0) {
          return Status::InvalidArgument(
              StrFormat("column '%s' must appear in GROUP BY",
                        item.column.c_str()));
        }
      }
    }
    r.items_.push_back(plan);
  }

  if (!r.aggregation_) r.projected_ = r.NewResult();
  if (r.DenseAggregation()) {
    const size_t groups = static_cast<size_t>(r.total_groups_);
    const size_t n = groups * static_cast<size_t>(std::max(1, r.num_aggs_));
    r.dense_states_.resize(n);
    r.dense_seen_.assign(groups, 0);
    const BlockGrid grid(table.num_rows());
    r.wide_ = !r.group_cols_.empty() &&
              (groups > kWideLayoutGroups ||
               groups * kReplicaRowsPerGroup >= grid.rows / grid.count);
    if (!r.wide_) {
      r.partial_states_.resize(n);
      r.partial_seen_.assign(groups, 0);
      r.touched_.reserve(groups);
    }
  }
  return r;
}

uint64_t SelectRunner::DenseKey(size_t row) const {
  uint64_t key = 0;
  for (size_t i = 0; i < group_cols_.size(); ++i) {
    key = key * group_dict_sizes_[i] +
          static_cast<uint64_t>(
              table_->Code(row, static_cast<size_t>(group_cols_[i])));
  }
  return key;
}

double SelectRunner::AggInput(const ItemPlan& item, size_t row) const {
  if (item.dptr != nullptr) return item.dptr[row];
  if (item.iptr != nullptr) return static_cast<double>(item.iptr[row]);
  return table_->NumericAt(row, static_cast<size_t>(item.col));
}

void SelectRunner::AccumulateInto(AggState* states, size_t row) const {
  for (const ItemPlan& item : items_) {
    if (!item.is_agg) continue;
    AggState& s = states[item.agg_slot];
    if (item.col < 0) {
      ++s.count;
      continue;
    }
    const double v = AggInput(item, row);
    s.sum += v;
    ++s.count;
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
  }
}

void SelectRunner::Consume(size_t row) {
  if (!aggregation_) {
    for (ResultColumn& col : projected_.columns) {
      if (col.kind == ResultColumn::Kind::kCodes) {
        col.codes.push_back(table_->Code(row, col.table_col));
      } else {
        col.values.push_back(table_->ValueAt(row, col.table_col));
      }
    }
    ++projected_.num_rows;
    return;
  }
  if (groups_categorical_) {
    // A hashed group space: dense ones fold through ConsumeBlock.
    const uint64_t key = DenseKey(row);
    auto [it, inserted] =
        hash_slots_.try_emplace(key, static_cast<uint32_t>(hash_keys_.size()));
    if (inserted) {
      hash_keys_.push_back(key);
      hash_states_.resize(hash_states_.size() +
                          static_cast<size_t>(std::max(1, num_aggs_)));
    }
    AccumulateInto(&hash_states_[static_cast<size_t>(it->second) *
                                 static_cast<size_t>(std::max(1, num_aggs_))],
                   row);
    return;
  }
  // Generic path: group key is a Value tuple. Binned keys reduce the raw
  // value to its bin's lower edge with exactly the client binner's
  // arithmetic (viz/binning.cc BinVisualization) so a pushed-down binned
  // fetch emits the same edge values the client transform would.
  std::vector<Value> key;
  key.reserve(group_cols_.size());
  for (size_t i = 0; i < group_cols_.size(); ++i) {
    const size_t col = static_cast<size_t>(group_cols_[i]);
    const double w = group_bin_widths_[i];
    if (w > 0) {
      const int64_t bin =
          static_cast<int64_t>(std::floor(table_->NumericAt(row, col) / w));
      key.push_back(Value::Double(static_cast<double>(bin) * w));
    } else {
      key.push_back(table_->ValueAt(row, col));
    }
  }
  auto [it, inserted] = generic_slots_.try_emplace(
      std::move(key), static_cast<uint32_t>(generic_slots_.size()));
  if (inserted) {
    generic_states_.resize(generic_states_.size() +
                           static_cast<size_t>(std::max(1, num_aggs_)));
  }
  AccumulateInto(&generic_states_[static_cast<size_t>(it->second) *
                                  static_cast<size_t>(std::max(1, num_aggs_))],
                 row);
}

namespace {

/// Adds a later partial's aggregate states into an earlier one's.
template <typename State>
void MergeStates(State* into, const State* from, size_t naggs) {
  for (size_t a = 0; a < naggs; ++a) {
    into[a].sum += from[a].sum;
    into[a].count += from[a].count;
    if (from[a].min < into[a].min) into[a].min = from[a].min;
    if (from[a].max > into[a].max) into[a].max = from[a].max;
  }
}

}  // namespace

void SelectRunner::MergeFrom(SelectRunner&& other) {
  const size_t naggs = static_cast<size_t>(std::max(1, num_aggs_));
  if (!aggregation_) {
    for (size_t i = 0; i < projected_.columns.size(); ++i) {
      ResultColumn& into = projected_.columns[i];
      ResultColumn& from = other.projected_.columns[i];
      into.codes.insert(into.codes.end(), from.codes.begin(), from.codes.end());
      into.values.insert(into.values.end(),
                         std::make_move_iterator(from.values.begin()),
                         std::make_move_iterator(from.values.end()));
    }
    projected_.num_rows += other.projected_.num_rows;
    return;
  }
  if (groups_categorical_) {
    for (size_t idx = 0; idx < other.hash_keys_.size(); ++idx) {
      const uint64_t key = other.hash_keys_[idx];
      auto [it, inserted] = hash_slots_.try_emplace(
          key, static_cast<uint32_t>(hash_keys_.size()));
      if (inserted) {
        hash_keys_.push_back(key);
        hash_states_.resize(hash_states_.size() + naggs);
      }
      MergeStates(&hash_states_[static_cast<size_t>(it->second) * naggs],
                  &other.hash_states_[idx * naggs], naggs);
    }
    return;
  }
  for (const auto& [key, slot] : other.generic_slots_) {
    auto [it, inserted] = generic_slots_.try_emplace(
        key, static_cast<uint32_t>(generic_slots_.size()));
    if (inserted) generic_states_.resize(generic_states_.size() + naggs);
    MergeStates(&generic_states_[static_cast<size_t>(it->second) * naggs],
                &other.generic_states_[static_cast<size_t>(slot) * naggs],
                naggs);
  }
}

Status SelectRunner::ConsumeBlock(const uint32_t* rows, size_t count) {
  const size_t naggs = static_cast<size_t>(std::max(1, num_aggs_));
  AggState* const into = wide_ ? dense_states_.data() : partial_states_.data();
  // Dense keys are below kDenseGroupLimit, so they fit 32 bits.
  uint32_t keys[kPredicateBatchRows] = {};
  ZV_RETURN_NOT_OK(ForEachBatch(0, static_cast<uint32_t>(count), [&](
                                    uint32_t lo, uint32_t n) {
    const uint32_t* batch = rows + lo;
    // DenseKey's mixed radix, one group column at a time.
    for (uint32_t i = 0; i < n; ++i) keys[i] = 0;
    for (size_t g = 0; g < group_codes_.size(); ++g) {
      const int32_t* codes = group_codes_[g];
      const uint32_t radix = static_cast<uint32_t>(group_dict_sizes_[g]);
      for (uint32_t i = 0; i < n; ++i) {
        keys[i] = keys[i] * radix + static_cast<uint32_t>(codes[batch[i]]);
      }
    }
    if (wide_) {
      for (uint32_t i = 0; i < n; ++i) dense_seen_[keys[i]] = 1;
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        if (partial_seen_[keys[i]]) continue;
        partial_seen_[keys[i]] = 1;
        touched_.push_back(keys[i]);
      }
    }
    for (const ItemPlan& item : items_) {
      if (!item.is_agg) continue;
      AggState* states = into + item.agg_slot;
      if (item.agg == AggFunc::kCount) {
        for (uint32_t i = 0; i < n; ++i) ++states[keys[i] * naggs].count;
        continue;
      }
      // input(i) is the batch's i-th row's value of the aggregated column.
      // Each function updates only the fields FinalizeAgg reads.
      const bool sums = item.agg == AggFunc::kSum || item.agg == AggFunc::kAvg;
      const bool counts = item.agg != AggFunc::kSum;
      const bool mins = item.agg == AggFunc::kMin;
      const bool maxes = item.agg == AggFunc::kMax;
      const auto fold = [&](auto input) {
        for (uint32_t i = 0; i < n; ++i) {
          AggState& s = states[keys[i] * naggs];
          const double v = input(i);
          if (sums) s.sum += v;
          if (counts) ++s.count;
          if (mins && v < s.min) s.min = v;
          if (maxes && v > s.max) s.max = v;
        }
      };
      if (item.dptr != nullptr) {
        fold([&](uint32_t i) { return item.dptr[batch[i]]; });
      } else if (item.iptr != nullptr) {
        fold([&](uint32_t i) {
          return static_cast<double>(item.iptr[batch[i]]);
        });
      } else {
        fold([&](uint32_t i) {
          return table_->NumericAt(batch[i], static_cast<size_t>(item.col));
        });
      }
    }
  }));
  // The narrow layout merges the block's partial as MergeFrom merges a
  // block runner's, and empties it for the next block.
  for (uint32_t key : touched_) {
    AggState* partial = &partial_states_[key * naggs];
    dense_seen_[key] = 1;
    MergeStates(&dense_states_[key * naggs], partial, naggs);
    std::fill_n(partial, naggs, AggState{});
    partial_seen_[key] = 0;
  }
  touched_.clear();
  return Status::OK();
}

double SelectRunner::FinalizeAgg(const AggState& s, AggFunc f) {
  switch (f) {
    case AggFunc::kSum:
      return s.sum;
    case AggFunc::kAvg:
      return s.count ? s.sum / static_cast<double>(s.count) : 0;
    case AggFunc::kCount:
      return static_cast<double>(s.count);
    case AggFunc::kMin:
      return s.count ? s.min : 0;
    case AggFunc::kMax:
      return s.count ? s.max : 0;
    case AggFunc::kNone:
      break;
  }
  return 0;
}

ColumnarResult SelectRunner::NewResult() const {
  ColumnarResult rs{table_, 0, std::vector<ResultColumn>(items_.size())};
  for (size_t i = 0; i < items_.size(); ++i) {
    ResultColumn& col = rs.columns[i];
    col.name = columns_[i];
    col.count = items_[i].agg == AggFunc::kCount;
    col.table_col = static_cast<size_t>(std::max(0, items_[i].col));
    const bool coded =
        !items_[i].is_agg && (!aggregation_ || groups_categorical_) &&
        table_->column_type(col.table_col) == ColumnType::kCategorical;
    col.kind = items_[i].is_agg ? ResultColumn::Kind::kDoubles
               : coded          ? ResultColumn::Kind::kCodes
                                : ResultColumn::Kind::kValues;
  }
  return rs;
}

bool SelectRunner::OrderKeysByRank(std::vector<uint64_t>* keys) const {
  if (order_by_.empty()) return false;
  // Resolve each ORDER BY column to its output column exactly as
  // ApplyOrderAndLimit does; anything but a strictly ordered categorical
  // group key leaves the sort to it.
  struct RankKey {
    size_t pos;
    bool desc;
  };
  std::vector<RankKey> rank_keys;
  std::vector<uint8_t> used(group_cols_.size(), 0);
  for (const sql::OrderKey& k : order_by_) {
    const auto it = std::find(columns_.begin(), columns_.end(), k.column);
    if (it == columns_.end()) return false;
    const ItemPlan& item = items_[static_cast<size_t>(it - columns_.begin())];
    if (item.is_agg) return false;
    const size_t pos = static_cast<size_t>(item.group_pos);
    if (!table_->DictOrderStrict(static_cast<size_t>(group_cols_[pos]))) {
      return false;
    }
    // A repeated key never breaks a tie its first occurrence left.
    if (used[pos]) continue;
    used[pos] = 1;
    rank_keys.push_back({pos, k.descending});
  }
  // One stable counting pass per ORDER BY key over its dictionary ranks,
  // least significant first. The keys arrive ascending, so ties keep key
  // order, as a stable sort of key-ordered rows would.
  std::vector<uint64_t> sorted(keys->size());
  std::vector<size_t> starts;
  for (auto rk = rank_keys.rbegin(); rk != rank_keys.rend(); ++rk) {
    const size_t stride = group_strides_[rk->pos];
    const size_t dict_size = group_dict_sizes_[rk->pos];
    const std::vector<int32_t>& ranks =
        table_->DictRanks(static_cast<size_t>(group_cols_[rk->pos]));
    const bool desc = rk->desc;
    const auto bucket = [&](uint64_t key) {
      const size_t rank = static_cast<size_t>(ranks[key / stride % dict_size]);
      return desc ? dict_size - 1 - rank : rank;
    };
    starts.assign(dict_size + 1, 0);
    for (uint64_t key : *keys) ++starts[bucket(key) + 1];
    std::partial_sum(starts.begin(), starts.end(), starts.begin());
    for (uint64_t key : *keys) sorted[starts[bucket(key)]++] = key;
    keys->swap(sorted);
  }
  if (limit_ >= 0 && keys->size() > static_cast<size_t>(limit_)) {
    keys->resize(static_cast<size_t>(limit_));
  }
  return true;
}

namespace {

/// Keeps the entries of `v` at `order`, in that order.
template <typename T>
void GatherInto(std::vector<T>* v, const std::vector<uint32_t>& order) {
  if (v->empty()) return;
  std::vector<T> out;
  out.reserve(order.size());
  for (uint32_t i : order) out.push_back(std::move((*v)[i]));
  *v = std::move(out);
}

}  // namespace

Status SelectRunner::ApplyOrderAndLimit(ColumnarResult* rs) const {
  if (order_by_.empty() &&
      (limit_ < 0 || rs->num_rows <= static_cast<size_t>(limit_))) {
    return Status::OK();
  }
  std::vector<uint32_t> order(rs->num_rows);
  std::iota(order.begin(), order.end(), 0u);
  if (!order_by_.empty()) {
    // Each ORDER BY column's cells as Values, with its direction.
    std::vector<std::pair<std::vector<Value>, bool>> keys;
    for (const auto& k : order_by_) {
      const auto it = std::find(columns_.begin(), columns_.end(), k.column);
      if (it == columns_.end()) {
        return Status::Unsupported(
            StrFormat("ORDER BY column '%s' must appear in the SELECT list",
                      k.column.c_str()));
      }
      std::vector<Value> cells;
      cells.reserve(rs->num_rows);
      for (size_t r = 0; r < rs->num_rows; ++r) {
        cells.push_back(rs->At(static_cast<size_t>(it - columns_.begin()), r));
      }
      keys.emplace_back(std::move(cells), k.descending);
    }
    auto key_compare = [&keys](uint32_t a, uint32_t b) {
      for (const auto& [cells, desc] : keys) {
        const int c = cells[a].Compare(cells[b]);
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return false;
    };
    const size_t limit = static_cast<size_t>(limit_);
    if (limit_ >= 0 && order.size() > limit && limit <= order.size() / 2) {
      // A top-k: a partial sort with the original position as the
      // tie-break keeps exactly the stable sort's first `limit` rows. Past
      // half the rows, sorting once beats the tie-break's double compares.
      std::partial_sort(order.begin(), order.begin() + limit, order.end(),
                        [&](uint32_t a, uint32_t b) {
                          if (key_compare(a, b)) return true;
                          if (key_compare(b, a)) return false;
                          return a < b;
                        });
    } else {
      std::stable_sort(order.begin(), order.end(), key_compare);
    }
  }
  if (limit_ >= 0 && order.size() > static_cast<size_t>(limit_)) {
    order.resize(static_cast<size_t>(limit_));
  }
  for (ResultColumn& col : rs->columns) {
    GatherInto(&col.codes, order);
    GatherInto(&col.doubles, order);
    GatherInto(&col.values, order);
  }
  rs->num_rows = order.size();
  return Status::OK();
}

Result<ColumnarResult> SelectRunner::Finish() {
  if (!aggregation_) {
    ColumnarResult rs = std::move(projected_);
    ZV_RETURN_NOT_OK(ApplyOrderAndLimit(&rs));
    return rs;
  }

  const size_t naggs = static_cast<size_t>(std::max(1, num_aggs_));
  if (!groups_categorical_) {
    // generic_slots_ is a std::map — already in key order.
    ColumnarResult rs = NewResult();
    rs.num_rows = generic_slots_.size();
    for (const auto& [key, slot] : generic_slots_) {
      const AggState* states =
          &generic_states_[static_cast<size_t>(slot) * naggs];
      for (size_t i = 0; i < items_.size(); ++i) {
        const ItemPlan& item = items_[i];
        if (item.is_agg) {
          rs.columns[i].doubles.push_back(
              FinalizeAgg(states[item.agg_slot], item.agg));
        } else {
          rs.columns[i].values.push_back(
              key[static_cast<size_t>(item.group_pos)]);
        }
      }
    }
    ZV_RETURN_NOT_OK(ApplyOrderAndLimit(&rs));
    return rs;
  }

  std::vector<uint64_t> keys;
  if (dense_) {
    for (size_t key = 0; key < dense_seen_.size(); ++key) {
      if (dense_seen_[key]) keys.push_back(key);
    }
    if (group_cols_.empty() && keys.empty() && num_aggs_ > 0) {
      // Aggregates over an empty selection: one row of empty aggregates,
      // mirroring SQL semantics for aggregate queries with no GROUP BY.
      keys.push_back(0);
    }
  } else {
    keys = hash_keys_;
    std::sort(keys.begin(), keys.end());
  }
  const bool ranked = OrderKeysByRank(&keys);
  std::vector<const AggState*> states;
  states.reserve(keys.size());
  for (uint64_t key : keys) {
    states.push_back(dense_ ? &dense_states_[key * naggs]
                            : &hash_states_[static_cast<size_t>(
                                                hash_slots_.at(key)) *
                                            naggs]);
  }
  // One column at a time: keys as their codes, aggregates as doubles.
  ColumnarResult rs = NewResult();
  rs.num_rows = keys.size();
  for (size_t i = 0; i < items_.size(); ++i) {
    const ItemPlan& item = items_[i];
    ResultColumn& col = rs.columns[i];
    for (size_t g = 0; g < keys.size(); ++g) {
      if (item.is_agg) {
        col.doubles.push_back(FinalizeAgg(states[g][item.agg_slot], item.agg));
      } else {
        const size_t pos = static_cast<size_t>(item.group_pos);
        col.codes.push_back(static_cast<int32_t>(
            (keys[g] / group_strides_[pos]) % group_dict_sizes_[pos]));
      }
    }
  }
  if (!ranked) ZV_RETURN_NOT_OK(ApplyOrderAndLimit(&rs));
  return rs;
}

namespace {

/// The per-block runners of projections, computed keys and hashed group
/// spaces: block b's rows aggregate into their own runner (`runner`
/// serves block 0) in parallel, and the runners merge in block order.
Result<ColumnarResult> RunPerBlock(const Table& table,
                              const sql::SelectStatement& stmt,
                              SelectRunner runner, const BlockGrid& grid,
                              const std::vector<std::vector<uint32_t>>& parts) {
  std::vector<SelectRunner> runners;
  runners.reserve(grid.count);
  runners.push_back(std::move(runner));
  for (size_t b = 1; b < grid.count; ++b) {
    ZV_ASSIGN_OR_RETURN(SelectRunner block_runner,
                        SelectRunner::Plan(table, stmt));
    runners.push_back(std::move(block_runner));
  }
  ZV_RETURN_NOT_OK(ParallelForStatus(grid.count, [&](size_t b) {
    std::vector<uint32_t> scratch;
    const auto [first, last] = grid.Rows(parts, b, &scratch);
    for (const uint32_t* row = first; row != last; ++row) {
      runners[b].Consume(*row);
    }
    return Status::OK();
  }));
  for (size_t b = 1; b < grid.count; ++b) {
    runners[0].MergeFrom(std::move(runners[b]));
  }
  return runners[0].Finish();
}

}  // namespace

Result<ColumnarResult> RunBlockedOverRows(
    const Table& table, const sql::SelectStatement& stmt,
    const std::vector<std::vector<uint32_t>>& parts) {
  ZV_RETURN_NOT_OK(CheckCancelled());
  ZV_ASSIGN_OR_RETURN(SelectRunner runner, SelectRunner::Plan(table, stmt));
  const BlockGrid grid(table.num_rows());
  if (runner.DenseAggregation()) {
    std::vector<uint32_t> scratch;
    for (size_t b = 0; b < grid.count; ++b) {
      const auto [first, last] = grid.Rows(parts, b, &scratch);
      ZV_RETURN_NOT_OK(
          runner.ConsumeBlock(first, static_cast<size_t>(last - first)));
    }
    return runner.Finish();
  }
  return RunPerBlock(table, stmt, std::move(runner), grid, parts);
}

}  // namespace zv
