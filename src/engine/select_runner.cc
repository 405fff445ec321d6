#include "engine/select_runner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/cancel.h"
#include "common/parallel.h"
#include "common/strings.h"

namespace zv {

using sql::AggFunc;
using sql::SelectStatement;

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

  if (r.aggregation_ && r.dense_) {
    const size_t n = static_cast<size_t>(r.total_groups_) *
                     std::max(1, r.num_aggs_);
    r.dense_states_.resize(n);
    r.dense_seen_.assign(static_cast<size_t>(r.total_groups_), 0);
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

template <typename InputFn>
void SelectRunner::FoldRow(AggState* states, InputFn&& input) const {
  for (const ItemPlan& item : items_) {
    if (!item.is_agg) continue;
    AggState& s = states[item.agg_slot];
    if (item.col < 0) {
      ++s.count;
      continue;
    }
    const double v = input(item);
    s.sum += v;
    ++s.count;
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
  }
}

void SelectRunner::AccumulateInto(AggState* states, size_t row) const {
  FoldRow(states, [this, row](const ItemPlan& item) {
    return AggInput(item, row);
  });
}

void SelectRunner::Consume(size_t row) {
  if (!aggregation_) {
    std::vector<Value> out;
    out.reserve(items_.size());
    for (const ItemPlan& item : items_) {
      out.push_back(table_->ValueAt(row, static_cast<size_t>(item.col)));
    }
    projected_rows_.push_back(std::move(out));
    return;
  }
  if (groups_categorical_) {
    const uint64_t key = group_cols_.empty() ? 0 : DenseKey(row);
    if (dense_) {
      dense_seen_[key] = 1;
      AccumulateInto(
          &dense_states_[key * static_cast<uint64_t>(std::max(1, num_aggs_))],
          row);
    } else {
      auto [it, inserted] =
          hash_slots_.try_emplace(key, static_cast<uint32_t>(hash_keys_.size()));
      if (inserted) {
        hash_keys_.push_back(key);
        hash_states_.resize(hash_states_.size() +
                            static_cast<size_t>(std::max(1, num_aggs_)));
      }
      AccumulateInto(
          &hash_states_[static_cast<size_t>(it->second) *
                        static_cast<size_t>(std::max(1, num_aggs_))],
          row);
    }
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
  auto [it, inserted] =
      generic_slots_.try_emplace(key, static_cast<uint32_t>(generic_keys_.size()));
  if (inserted) {
    generic_keys_.push_back(key);
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
    projected_rows_.insert(
        projected_rows_.end(),
        std::make_move_iterator(other.projected_rows_.begin()),
        std::make_move_iterator(other.projected_rows_.end()));
    return;
  }
  if (groups_categorical_) {
    if (dense_) {
      for (size_t key = 0; key < other.dense_seen_.size(); ++key) {
        if (!other.dense_seen_[key]) continue;
        dense_seen_[key] = 1;
        MergeStates(&dense_states_[key * naggs],
                    &other.dense_states_[key * naggs], naggs);
      }
    } else {
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
    }
    return;
  }
  for (const auto& [key, slot] : other.generic_slots_) {
    auto [it, inserted] = generic_slots_.try_emplace(
        key, static_cast<uint32_t>(generic_keys_.size()));
    if (inserted) {
      generic_keys_.push_back(key);
      generic_states_.resize(generic_states_.size() + naggs);
    }
    MergeStates(&generic_states_[static_cast<size_t>(it->second) * naggs],
                &other.generic_states_[static_cast<size_t>(slot) * naggs],
                naggs);
  }
}

namespace {

/// A dense group space this many times narrower than a block's rows is
/// replicated per block; anything wider is aggregated key-partitioned.
constexpr uint64_t kReplicaRowsPerGroup = 4;

}  // namespace

bool SelectRunner::KeyPartitioned(size_t rows_per_block) const {
  if (!aggregation_ || !dense_ || group_cols_.empty()) return false;
  return total_groups_ > kBlockAssociationGroupLimit ||
         total_groups_ * kReplicaRowsPerGroup >= rows_per_block;
}

Status SelectRunner::ConsumeByKeyRange(const std::vector<BlockRows>& blocks) {
  const size_t naggs = static_cast<size_t>(std::max(1, num_aggs_));
  const size_t groups = static_cast<size_t>(total_groups_);
  // Part p owns the keys whose run of kKeyRunBits-aligned keys has index
  // p mod parts: parts are balanced, and no two write one cache line.
  constexpr unsigned kKeyRunBits = 6;
  constexpr size_t kMaxParts = 64;
  size_t parts = 1;
  while (parts < std::min(ParallelWorkerCount(), kMaxParts)) parts <<= 1;
  const uint32_t part_mask = static_cast<uint32_t>(parts - 1);
  size_t inputs_per_row = 0;
  for (const ItemPlan& item : items_) inputs_per_row += item.is_agg && item.col >= 0;

  // Scatter: every block routes each row's key and aggregate inputs to
  // its owning part, so the fold below reads only its own rows, in order.
  struct Bucket {
    std::vector<uint32_t> keys;
    std::vector<double> inputs;
  };
  std::vector<Bucket> buckets(blocks.size() * parts);
  ParallelFor(blocks.size(), [&](size_t b) {
    Bucket* out = &buckets[b * parts];
    const size_t expect =
        static_cast<size_t>(blocks[b].end - blocks[b].begin) / parts;
    for (size_t p = 0; p < parts; ++p) {
      out[p].keys.reserve(expect);
      out[p].inputs.reserve(expect * inputs_per_row);
    }
    for (const uint32_t* row = blocks[b].begin; row != blocks[b].end; ++row) {
      const uint32_t key = static_cast<uint32_t>(DenseKey(*row));
      Bucket& bucket = out[(key >> kKeyRunBits) & part_mask];
      bucket.keys.push_back(key);
      for (const ItemPlan& item : items_) {
        if (item.is_agg && item.col >= 0) {
          bucket.inputs.push_back(AggInput(item, *row));
        }
      }
    }
  });
  ZV_RETURN_NOT_OK(CheckCancelled());

  // partial_block[k] is the block whose partial group k holds (0 = none).
  const bool per_block = total_groups_ <= kBlockAssociationGroupLimit;
  std::vector<AggState> partials(per_block ? groups * naggs : 0);
  std::vector<uint8_t> partial_block(per_block ? groups : 0, 0);
  ParallelFor(parts, [&](size_t p) {
    for (size_t b = 0; b < blocks.size(); ++b) {
      const Bucket& bucket = buckets[b * parts + p];
      const double* in = bucket.inputs.data();
      const auto next_input = [&in](const ItemPlan&) { return *in++; };
      for (const uint32_t key : bucket.keys) {
        dense_seen_[key] = 1;
        AggState* final_states = &dense_states_[key * naggs];
        if (b == 0 || !per_block) {
          FoldRow(final_states, next_input);
          continue;
        }
        AggState* partial = &partials[key * naggs];
        if (partial_block[key] != b) {
          if (partial_block[key] != 0) {
            MergeStates(final_states, partial, naggs);
          }
          std::fill(partial, partial + naggs, AggState());
          partial_block[key] = static_cast<uint8_t>(b);
        }
        FoldRow(partial, next_input);
      }
    }
    if (!per_block) return;
    for (size_t run = p << kKeyRunBits; run < groups;
         run += parts << kKeyRunBits) {
      const size_t run_end = std::min(groups, run + (size_t{1} << kKeyRunBits));
      for (size_t key = run; key < run_end; ++key) {
        if (partial_block[key] != 0) {
          MergeStates(&dense_states_[key * naggs], &partials[key * naggs],
                      naggs);
        }
      }
    }
  });
  return CheckCancelled();
}

Value SelectRunner::GroupColValue(int group_pos, uint64_t key) const {
  // Decode the mixed-radix key back to the per-column code using the
  // strides precomputed at Plan() time.
  const uint64_t divisor = group_strides_[static_cast<size_t>(group_pos)];
  const uint64_t code =
      (key / divisor) % group_dict_sizes_[static_cast<size_t>(group_pos)];
  return table_->DictValue(
      static_cast<size_t>(group_cols_[static_cast<size_t>(group_pos)]),
      static_cast<int32_t>(code));
}

Value SelectRunner::FinalizeAgg(const AggState& s, AggFunc f) const {
  switch (f) {
    case AggFunc::kSum:
      return Value::Double(s.sum);
    case AggFunc::kAvg:
      return Value::Double(s.count ? s.sum / static_cast<double>(s.count) : 0);
    case AggFunc::kCount:
      return Value::Int(s.count);
    case AggFunc::kMin:
      return Value::Double(s.count ? s.min : 0);
    case AggFunc::kMax:
      return Value::Double(s.count ? s.max : 0);
    case AggFunc::kNone:
      break;
  }
  return Value::Null();
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
  // One integer per group: its ORDER BY ranks in mixed radix (their
  // product is at most total_groups_), then the key itself — the
  // position a stable sort of key-ordered rows would break ties by.
  std::vector<uint64_t> sort_keys;
  sort_keys.reserve(keys->size());
  for (uint64_t key : *keys) {
    uint64_t ranked = 0;
    for (const RankKey& rk : rank_keys) {
      const uint64_t d = group_dict_sizes_[rk.pos];
      const uint64_t code = (key / group_strides_[rk.pos]) % d;
      const uint64_t rank = static_cast<uint64_t>(
          table_->DictRanks(static_cast<size_t>(
              group_cols_[rk.pos]))[static_cast<size_t>(code)]);
      ranked = ranked * d + (rk.desc ? d - 1 - rank : rank);
    }
    sort_keys.push_back(ranked * total_groups_ + key);
  }
  if (limit_ >= 0 && sort_keys.size() > static_cast<size_t>(limit_)) {
    const auto mid = sort_keys.begin() + limit_;
    std::partial_sort(sort_keys.begin(), mid, sort_keys.end());
    sort_keys.erase(mid, sort_keys.end());
  } else {
    std::sort(sort_keys.begin(), sort_keys.end());
  }
  keys->clear();
  for (uint64_t s : sort_keys) keys->push_back(s % total_groups_);
  return true;
}

Status SelectRunner::ApplyOrderAndLimit(ResultSet* rs) const {
  if (!order_by_.empty()) {
    std::vector<std::pair<int, bool>> keys;  // output column idx, desc
    for (const auto& k : order_by_) {
      const int idx = rs->Find(k.column);
      if (idx < 0) {
        return Status::Unsupported(
            StrFormat("ORDER BY column '%s' must appear in the SELECT list",
                      k.column.c_str()));
      }
      keys.emplace_back(idx, k.descending);
    }
    auto key_compare = [&keys](const std::vector<Value>& a,
                               const std::vector<Value>& b) {
      for (const auto& [idx, desc] : keys) {
        const int c =
            a[static_cast<size_t>(idx)].Compare(b[static_cast<size_t>(idx)]);
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return false;
    };
    const size_t limit = static_cast<size_t>(limit_);
    if (limit_ >= 0 && rs->rows.size() > limit &&
        limit <= rs->rows.size() / 2) {
      // ORDER BY + LIMIT is a top-k problem: partially sort row *indices*
      // with the original position as the tie-break, which reproduces the
      // stable full sort's first `limit` rows exactly without ordering the
      // (possibly much larger) tail. Limits past half the row count fall
      // through to the stable sort — heap-selecting nearly everything at
      // double compare cost (the tie-break comparator) would be slower
      // than sorting once.
      std::vector<size_t> order(rs->rows.size());
      std::iota(order.begin(), order.end(), 0);
      std::partial_sort(order.begin(), order.begin() + limit, order.end(),
                        [&](size_t ia, size_t ib) {
                          if (key_compare(rs->rows[ia], rs->rows[ib])) {
                            return true;
                          }
                          if (key_compare(rs->rows[ib], rs->rows[ia])) {
                            return false;
                          }
                          return ia < ib;
                        });
      std::vector<std::vector<Value>> kept;
      kept.reserve(limit);
      for (size_t i = 0; i < limit; ++i) {
        kept.push_back(std::move(rs->rows[order[i]]));
      }
      rs->rows = std::move(kept);
      return Status::OK();
    }
    std::stable_sort(rs->rows.begin(), rs->rows.end(), key_compare);
  }
  if (limit_ >= 0 && rs->rows.size() > static_cast<size_t>(limit_)) {
    rs->rows.resize(static_cast<size_t>(limit_));
  }
  return Status::OK();
}

Result<ResultSet> SelectRunner::Finish() {
  ResultSet rs;
  rs.columns = columns_;

  if (!aggregation_) {
    rs.rows = std::move(projected_rows_);
    ZV_RETURN_NOT_OK(ApplyOrderAndLimit(&rs));
    return rs;
  }

  const size_t naggs = static_cast<size_t>(std::max(1, num_aggs_));
  auto emit_group = [&](uint64_t key, const AggState* states) {
    std::vector<Value> row;
    row.reserve(items_.size());
    for (const ItemPlan& item : items_) {
      if (item.is_agg) {
        row.push_back(FinalizeAgg(states[item.agg_slot], item.agg));
      } else {
        row.push_back(GroupColValue(item.group_pos, key));
      }
    }
    rs.rows.push_back(std::move(row));
  };

  if (groups_categorical_) {
    if (dense_) {
      std::vector<uint64_t> keys;
      for (size_t key = 0; key < dense_seen_.size(); ++key) {
        if (dense_seen_[key]) keys.push_back(key);
      }
      if (group_cols_.empty() && keys.empty() && num_aggs_ > 0) {
        // Aggregates over an empty selection: one row of empty aggregates,
        // mirroring SQL semantics for aggregate queries with no GROUP BY.
        keys.push_back(0);
      }
      const bool ranked = OrderKeysByRank(&keys);
      rs.rows.reserve(keys.size());
      for (uint64_t key : keys) emit_group(key, &dense_states_[key * naggs]);
      if (ranked) return rs;
    } else {
      std::vector<uint64_t> keys = hash_keys_;
      std::sort(keys.begin(), keys.end());
      for (uint64_t key : keys) {
        const uint32_t slot = hash_slots_.at(key);
        emit_group(key, &hash_states_[static_cast<size_t>(slot) * naggs]);
      }
    }
  } else {
    // generic_slots_ is a std::map — already in key order.
    for (const auto& [key, slot] : generic_slots_) {
      std::vector<Value> row;
      row.reserve(items_.size());
      const AggState* states =
          &generic_states_[static_cast<size_t>(slot) * naggs];
      for (const ItemPlan& item : items_) {
        if (item.is_agg) {
          row.push_back(FinalizeAgg(states[item.agg_slot], item.agg));
        } else {
          row.push_back(key[static_cast<size_t>(item.group_pos)]);
        }
      }
      rs.rows.push_back(std::move(row));
    }
  }
  ZV_RETURN_NOT_OK(ApplyOrderAndLimit(&rs));
  return rs;
}

namespace {

/// Target rows per block and the cap on per-block runner state. The block
/// count derived from these is a pure function of the table size.
constexpr size_t kScanBlockRows = 16384;
constexpr size_t kMaxScanBlocks = 32;

/// Yields block [begin, end)'s selected rows: a view into a caller-owned
/// list, or rows selected into `scratch`.
using BlockSource = std::function<Result<SelectRunner::BlockRows>(
    uint32_t begin, uint32_t end, std::vector<uint32_t>* scratch)>;

Result<ResultSet> RunBlockedImpl(const Table& table,
                                 const sql::SelectStatement& stmt,
                                 const BlockSource& source) {
  ZV_RETURN_NOT_OK(CheckCancelled());
  ZV_ASSIGN_OR_RETURN(SelectRunner runner, SelectRunner::Plan(table, stmt));
  const size_t n = table.num_rows();
  const size_t blocks =
      std::min(kMaxScanBlocks, std::max<size_t>(1, n / kScanBlockRows));
  const auto block_begin = [n, blocks](size_t b) {
    return static_cast<uint32_t>(n * b / blocks);
  };
  if (runner.KeyPartitioned(n / blocks)) {
    std::vector<std::vector<uint32_t>> scratch(blocks);
    std::vector<SelectRunner::BlockRows> rows(blocks);
    ZV_RETURN_NOT_OK(ParallelForStatus(blocks, [&](size_t b) -> Status {
      ZV_ASSIGN_OR_RETURN(
          rows[b], source(block_begin(b), block_begin(b + 1), &scratch[b]));
      return Status::OK();
    }));
    ZV_RETURN_NOT_OK(runner.ConsumeByKeyRange(rows));
    return runner.Finish();
  }

  std::vector<SelectRunner> runners;
  runners.reserve(blocks);
  runners.push_back(std::move(runner));
  for (size_t b = 1; b < blocks; ++b) {
    ZV_ASSIGN_OR_RETURN(SelectRunner block_runner,
                        SelectRunner::Plan(table, stmt));
    runners.push_back(std::move(block_runner));
  }
  ZV_RETURN_NOT_OK(ParallelForStatus(blocks, [&](size_t b) -> Status {
    std::vector<uint32_t> scratch;
    ZV_ASSIGN_OR_RETURN(SelectRunner::BlockRows rows,
                        source(block_begin(b), block_begin(b + 1), &scratch));
    for (const uint32_t* row = rows.begin; row != rows.end; ++row) {
      runners[b].Consume(*row);
    }
    return Status::OK();
  }));
  for (size_t b = 1; b < blocks; ++b) {
    runners[0].MergeFrom(std::move(runners[b]));
  }
  return runners[0].Finish();
}

}  // namespace

Result<ResultSet> RunBlocked(
    const Table& table, const sql::SelectStatement& stmt,
    const std::function<Status(uint32_t begin, uint32_t end,
                               std::vector<uint32_t>* out)>& select_block) {
  return RunBlockedImpl(
      table, stmt,
      [&select_block](uint32_t begin, uint32_t end,
                      std::vector<uint32_t>* scratch)
          -> Result<SelectRunner::BlockRows> {
        ZV_RETURN_NOT_OK(select_block(begin, end, scratch));
        return SelectRunner::BlockRows{scratch->data(),
                                       scratch->data() + scratch->size()};
      });
}

Result<ResultSet> RunBlockedOverRows(const Table& table,
                                     const sql::SelectStatement& stmt,
                                     const std::vector<uint32_t>& rows) {
  return RunBlockedImpl(
      table, stmt,
      [&rows](uint32_t begin, uint32_t end, std::vector<uint32_t>*)
          -> Result<SelectRunner::BlockRows> {
        const auto lo = std::lower_bound(rows.begin(), rows.end(), begin);
        const auto hi = std::lower_bound(lo, rows.end(), end);
        return SelectRunner::BlockRows{rows.data() + (lo - rows.begin()),
                                       rows.data() + (hi - rows.begin())};
      });
}

}  // namespace zv
