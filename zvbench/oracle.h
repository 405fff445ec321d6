/// \file oracle.h
/// \brief The output check. Every operation's output is compared, byte for
/// byte, with a reference execution of the same query: a ZqlExecutor over
/// a ScanDatabase with the staged schedule, one shard, no shared-scan
/// queue and no caches. None of the serving layer's machinery (result and
/// context caches, Roaring indexes, chunk fan-out, pipelining, shared
/// passes) is on the reference path.
///
/// Operations record a digest of what they returned; the reference runs
/// once per distinct (table version, query, format) after the measured
/// phase, so checking costs no measured time.

#ifndef ZVBENCH_ORACLE_H_
#define ZVBENCH_ORACLE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/protocol.h"
#include "engine/scan_db.h"
#include "stats.h"
#include "zql/executor.h"
#include "zql/parser.h"

namespace zvbench {

/// The request every wire gesture sends: a UI-sized first page of each
/// output, data included, no Vega specs.
inline zv::api::QueryRequest WireRequest(const std::string& dataset,
                                         const zv::zql::ZqlQuery& query,
                                         bool trace) {
  zv::api::QueryRequest request;
  request.dataset = dataset;
  request.query = query;
  request.page.limit = 5;
  request.include_vega = false;
  request.trace = trace;
  return request;
}

/// Type tag plus exact payload (doubles by bit pattern).
inline void DigestValue(const zv::Value& v, Digest* d) {
  d->U64(static_cast<uint64_t>(v.type()));
  if (v.is_int()) d->U64(static_cast<uint64_t>(v.AsInt()));
  if (v.is_double()) d->F64(v.AsDouble());
  if (v.is_string()) d->Str(v.AsString());
}

/// Digest of a typed result: every output's name and every visualization's
/// identity and data.
inline uint64_t DigestResult(const zv::zql::ZqlResult& result) {
  Digest d;
  d.U64(result.outputs.size());
  for (const zv::zql::ZqlOutput& out : result.outputs) {
    d.Str(out.name);
    d.U64(out.visuals.size());
    for (const zv::Visualization& v : out.visuals) {
      d.Str(v.x_attr);
      d.Str(v.y_attr);
      d.Str(v.constraints);
      d.U64(v.slices.size());
      for (const zv::Slice& s : v.slices) {
        d.Str(s.attribute);
        DigestValue(s.value, &d);
      }
      d.U64(v.xs.size());
      for (const zv::Value& x : v.xs) DigestValue(x, &d);
      d.U64(v.series.size());
      for (const zv::Series& s : v.series) {
        d.Str(s.name);
        d.U64(s.ys.size());
        for (double y : s.ys) d.F64(y);
      }
    }
  }
  return d.value();
}

/// Digest of a wire response's `outputs` member, as encoded on the wire.
inline uint64_t DigestWireOutputs(const zv::Json& encoded_response) {
  Digest d;
  const zv::Json* outputs = encoded_response.Find("outputs");
  d.Str(outputs == nullptr ? std::string() : outputs->Dump());
  return d.value();
}

/// An output a user would see as a blank chart: no output, an output with
/// no visualization, or a visualization with no points.
inline bool HasEmptyOutput(const zv::zql::ZqlResult& result) {
  if (result.outputs.empty()) return true;
  for (const auto& out : result.outputs) {
    if (out.visuals.empty()) return true;
    for (const auto& v : out.visuals) {
      if (v.num_points() == 0) return true;
    }
  }
  return false;
}

inline bool HasEmptyOutput(const zv::api::QueryResponse& response) {
  if (response.outputs.empty()) return true;
  for (const auto& out : response.outputs) {
    if (out.visuals.empty()) return true;
    for (const auto& v : out.visuals) {
      if (v.num_points() == 0) return true;
    }
  }
  return false;
}

/// What one operation returned, to be checked after the run.
struct Check {
  std::string canonical;  ///< CanonicalText of the query
  bool wire = false;      ///< digest is DigestWireOutputs, else DigestResult
  /// Bit t set: the operation may have read table version t (a write that
  /// lands mid-operation leaves two candidates).
  uint32_t tables = 1;
  uint64_t digest = 0;
};

class Oracle {
 public:
  /// `tables[t]` is table version t; each is registered in its own
  /// ScanDatabase under its own name.
  explicit Oracle(const std::vector<std::shared_ptr<zv::Table>>& tables) {
    for (const auto& table : tables) {
      auto db = std::make_shared<zv::ScanDatabase>();
      if (db->RegisterTable(table).ok()) dbs_.push_back({db, table->name()});
    }
    ok_ = dbs_.size() == tables.size();
  }

  /// Checks every operation against the reference, running the distinct
  /// reference executions on `threads` threads. Returns the number of
  /// checks that match no candidate table's reference output; the first
  /// mismatch is described in `first_error`.
  size_t Verify(const std::vector<Check>& checks,
                const std::map<std::string, zv::zql::ZqlQuery>& queries,
                size_t threads, std::string* first_error) const {
    if (!ok_) {
      *first_error = "reference database rejected a table";
      return checks.size();
    }
    using Key = std::tuple<size_t, bool, std::string>;
    std::map<Key, Expected> expected;
    for (const Check& c : checks) {
      for (size_t t = 0; t < dbs_.size(); ++t) {
        if (c.tables & (1u << t)) expected[{t, c.wire, c.canonical}];
      }
    }
    std::vector<std::pair<const Key, Expected>*> work;
    for (auto& entry : expected) work.push_back(&entry);
    std::atomic<size_t> next{0};
    auto run = [&] {
      for (size_t i = next++; i < work.size(); i = next++) {
        const auto& [t, wire, canonical] = work[i]->first;
        if (wire) {
          // The server executes the AST it decodes from the canonical
          // text, whose constraint spelling can differ from the source's.
          zv::Result<zv::zql::ZqlQuery> decoded =
              zv::zql::ParseQuery(canonical);
          if (decoded.ok()) work[i]->second = Execute(t, wire, *decoded);
          continue;
        }
        auto q = queries.find(canonical);
        if (q == queries.end()) continue;
        work[i]->second = Execute(t, wire, q->second);
      }
    };
    std::vector<std::thread> pool;
    for (size_t i = 0; i < std::max<size_t>(1, threads); ++i) {
      pool.emplace_back(run);
    }
    for (std::thread& th : pool) th.join();

    size_t mismatches = 0;
    for (const Check& c : checks) {
      bool match = false;
      std::string why = "no reference result";
      for (size_t t = 0; t < dbs_.size() && !match; ++t) {
        if (!(c.tables & (1u << t))) continue;
        const Expected& e = expected[{t, c.wire, c.canonical}];
        match = e.ok && e.digest == c.digest;
        why = e.ok ? "output differs from the reference" : e.error;
      }
      if (!match && mismatches++ == 0) {
        *first_error = why + " for query:\n" + c.canonical;
      }
    }
    return mismatches;
  }

 private:
  struct Expected {
    bool ok = false;
    uint64_t digest = 0;
    std::string error = "reference not computed";
  };

  Expected Execute(size_t table, bool wire,
                   const zv::zql::ZqlQuery& query) const {
    zv::zql::ZqlOptions opts;
    opts.pipelined_execution = false;
    opts.shards = 1;
    zv::zql::ZqlExecutor exec(dbs_[table].db.get(), dbs_[table].name, opts);
    Expected e;
    zv::Result<zv::zql::ZqlResult> result = exec.Execute(query);
    if (!result.ok()) {
      e.error = "reference failed: " + result.status().ToString();
      return e;
    }
    e.ok = true;
    e.digest = wire ? DigestWireOutputs(zv::api::EncodeResponse(
                          zv::api::BuildResponse(
                              *result, WireRequest(dbs_[table].name, query,
                                                   /*trace=*/false),
                              "")))
                    : DigestResult(*result);
    return e;
  }

  struct Db {
    std::shared_ptr<zv::ScanDatabase> db;
    std::string name;
  };
  std::vector<Db> dbs_;
  bool ok_ = false;
};

}  // namespace zvbench

#endif  // ZVBENCH_ORACLE_H_
