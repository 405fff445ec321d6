/// \file lru_cache.h
/// \brief A byte-budgeted, sharded LRU cache of shared_ptr values — the
/// substrate of the serving layer's ResultCache (query results).
///
/// Design:
///  - String keys, shared_ptr<const V> values: hits hand out refcounted
///    pointers, so eviction never invalidates a result a reader still holds.
///  - Sharding by key hash: each shard has its own mutex + LRU list, so
///    concurrent sessions rarely contend on the same lock.
///  - Byte budget, not entry count: every Put carries the entry's
///    approximate resident size; each shard evicts from its own LRU tail
///    until it fits its slice (total / shards) of the budget.
///  - Hit/miss counters are relaxed atomics — monitoring, not control flow.

#ifndef ZV_COMMON_LRU_CACHE_H_
#define ZV_COMMON_LRU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace zv {

template <typename V>
class ShardedLruCache {
 public:
  /// `max_bytes` is the total budget across all shards (0 disables caching:
  /// every Get misses and Put is a no-op). `shards` is clamped to >= 1.
  explicit ShardedLruCache(size_t max_bytes, size_t shards = 8)
      : max_bytes_(max_bytes),
        shards_(shards == 0 ? 1 : shards),
        shard_data_(shards_) {}

  /// `count_miss = false` makes a miss statistically silent — for
  /// opportunistic probes that will be followed by a counted Get on the
  /// slow path (otherwise one logical lookup would record two misses).
  std::shared_ptr<const V> Get(const std::string& key,
                               bool count_miss = true) {
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
      if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // move to front
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->value;
  }

  /// Inserts (or refreshes) `key`. Entries larger than a whole shard's
  /// budget are not cached at all.
  void Put(const std::string& key, std::shared_ptr<const V> value,
           size_t bytes) {
    const size_t shard_budget = max_bytes_ / shards_;
    if (bytes > shard_budget) return;
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      s.bytes -= it->second->bytes;
      s.lru.erase(it->second);
      s.index.erase(it);
    }
    s.lru.push_front(Entry{key, std::move(value), bytes});
    s.index[key] = s.lru.begin();
    s.bytes += bytes;
    while (s.bytes > shard_budget && !s.lru.empty()) {
      const Entry& tail = s.lru.back();
      s.bytes -= tail.bytes;
      s.index.erase(tail.key);
      s.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Drops every entry whose key satisfies `pred` (not counted as
  /// evictions).
  template <typename Pred>
  void EraseIf(Pred pred) {
    for (Shard& s : shard_data_) {
      std::lock_guard<std::mutex> lock(s.mu);
      for (auto it = s.lru.begin(); it != s.lru.end();) {
        if (pred(it->key)) {
          s.bytes -= it->bytes;
          s.index.erase(it->key);
          it = s.lru.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void Clear() {
    for (Shard& s : shard_data_) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.lru.clear();
      s.index.clear();
      s.bytes = 0;
    }
  }

  size_t bytes() const {
    size_t total = 0;
    for (const Shard& s : shard_data_) {
      std::lock_guard<std::mutex> lock(s.mu);
      total += s.bytes;
    }
    return total;
  }
  size_t entries() const {
    size_t total = 0;
    for (const Shard& s : shard_data_) {
      std::lock_guard<std::mutex> lock(s.mu);
      total += s.lru.size();
    }
    return total;
  }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
    size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::string, typename std::list<Entry>::iterator>
        index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key) {
    return shard_data_[std::hash<std::string>{}(key) % shards_];
  }

  const size_t max_bytes_;
  const size_t shards_;
  std::vector<Shard> shard_data_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace zv

#endif  // ZV_COMMON_LRU_CACHE_H_
