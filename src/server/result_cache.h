/// \file result_cache.h
/// \brief Sharded LRU of finished query results, keyed by QueryFingerprint.
///
/// Values are shared_ptr<const ZqlResult>: a hit hands the caller the same
/// immutable result object the first execution produced — zero-copy, safe
/// under concurrent readers, and immune to eviction races (the pointer
/// keeps the entry alive for whoever already holds it).
///
/// Invalidation is structural: the fingerprint embeds the dataset epoch, so
/// a table mutation makes every old key unreachable, and no lookup can ever
/// see a stale result. The service then reclaims the dataset's entries
/// (EraseDataset), so dead results neither hold memory nor push live
/// entries of other datasets out of the LRU.

#ifndef ZV_SERVER_RESULT_CACHE_H_
#define ZV_SERVER_RESULT_CACHE_H_

#include <memory>
#include <string>

#include "common/lru_cache.h"
#include "zql/executor.h"

namespace zv::server {

/// Approximate resident bytes of a finished result (visual identities +
/// data vectors) — what a cache entry charges against the byte budget.
inline size_t ApproxResultBytes(const zql::ZqlResult& r) {
  size_t bytes = sizeof(r);
  for (const zql::ZqlOutput& out : r.outputs) {
    bytes += out.name.size() + sizeof(out);
    for (const Visualization& v : out.visuals) {
      bytes += sizeof(v);
      bytes += v.x_attr.size() + v.y_attr.size() + v.constraints.size();
      for (const Slice& s : v.slices) {
        bytes += sizeof(s) + s.attribute.size() + 16;
      }
      bytes += v.xs.size() * (sizeof(Value) + 8);
      for (const Series& s : v.series) {
        bytes += sizeof(s) + s.name.size() + s.ys.size() * sizeof(double);
      }
    }
  }
  return bytes;
}

/// \brief Thread-safe sharded LRU over finished results. One instance per
/// QueryService, shared by every session.
class ResultCache {
 public:
  explicit ResultCache(size_t max_bytes, size_t shards = 8)
      : cache_(max_bytes, shards) {}

  std::shared_ptr<const zql::ZqlResult> Get(const std::string& dataset,
                                            const std::string& fingerprint) {
    return cache_.Get(Key(dataset, fingerprint));
  }

  /// Opportunistic lookup (the Submit fast path): counts hits but not
  /// misses — a missing entry falls through to the worker, whose Get
  /// records the one authoritative miss.
  std::shared_ptr<const zql::ZqlResult> Probe(const std::string& dataset,
                                              const std::string& fingerprint) {
    return cache_.Get(Key(dataset, fingerprint), /*count_miss=*/false);
  }

  void Put(const std::string& dataset, const std::string& fingerprint,
           std::shared_ptr<const zql::ZqlResult> result) {
    const size_t bytes = ApproxResultBytes(*result);
    cache_.Put(Key(dataset, fingerprint), std::move(result), bytes);
  }

  /// Drops every entry of `dataset` — all unreachable once its epoch moves.
  void EraseDataset(const std::string& dataset) {
    cache_.EraseIf([&dataset](const std::string& key) {
      return key.compare(key.find('/') + 1, std::string::npos, dataset) == 0;
    });
  }

  void Clear() { cache_.Clear(); }
  size_t bytes() const { return cache_.bytes(); }
  size_t entries() const { return cache_.entries(); }
  uint64_t hits() const { return cache_.hits(); }
  uint64_t misses() const { return cache_.misses(); }
  uint64_t evictions() const { return cache_.evictions(); }
  size_t max_bytes_total() const { return cache_.max_bytes(); }

 private:
  /// The fingerprint is hex, so the first '/' ends it.
  static std::string Key(const std::string& dataset,
                         const std::string& fingerprint) {
    return fingerprint + '/' + dataset;
  }

  ShardedLruCache<zql::ZqlResult> cache_;
};

}  // namespace zv::server

#endif  // ZV_SERVER_RESULT_CACHE_H_
