/// \file queries.h
/// \brief Seeded gesture generators. Every query constant, template choice
/// and revisit order comes from the workload seed and the client index, so
/// one seed always yields the same inputs.
///
/// A generator hands out *episodes*: the gestures one analyst issues back
/// to back. Tracing is decided per episode, so a traced run's traced and
/// untraced halves see the same mix.

#ifndef ZVBENCH_QUERIES_H_
#define ZVBENCH_QUERIES_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"

namespace zvbench {

class QuerySource {
 public:
  virtual ~QuerySource() = default;
  /// ZQL text of the next episode's gestures, in issue order.
  virtual std::vector<std::string> NextEpisode() = 0;
};

inline uint64_t ClientSeed(uint64_t seed, size_t client) {
  return seed * 0x9e3779b97f4a7c15ULL + client + 1;
}

inline const char* Pick(zv::Rng& rng, const std::vector<const char*>& from) {
  return from[rng.Uniform(from.size())];
}

/// The front end's gesture mix (explore and epoch_churn): an episode is one
/// fresh query, three constraint tweaks of it, and `revisits` revisits drawn
/// from those four. Templates rotate argmin D, argany T, argmax D, R(k)
/// across episodes, so every run has the same template mix.
///
/// The revisit count keeps the median away from the edge between the
/// cache-hit and cache-miss populations, where it would jump between them
/// from run to run: explore uses 6 (60% revisits, so the median is a hit);
/// epoch_churn uses 2 (33% revisits, fewer still hit after a write, so the
/// median is a miss however fast the readers run between writes).
class ExploreEpisodes : public QuerySource {
 public:
  ExploreEpisodes(uint64_t seed, size_t client, size_t products,
                  int revisits)
      : rng_(ClientSeed(seed, client)),
        next_(client),
        products_(products),
        revisits_(revisits) {}

  std::vector<std::string> NextEpisode() override {
    const size_t tmpl = next_++ % 4;
    const char* measure = Pick(rng_, {"sales", "profit", "revenue"});
    const size_t product = rng_.Uniform(products_);
    const int k = static_cast<int>(3 + rng_.Uniform(4));
    const char* sign = rng_.Uniform(2) == 0 ? ">" : "<";
    std::vector<std::string> episode;
    episode.reserve(4 + static_cast<size_t>(revisits_));
    for (int g = 0; g < 4; ++g) {
      // Gesture 0 is the fresh query; 1-3 tweak only its constraint.
      const std::string c = zv::StrFormat(
          "country='%s' AND weight > %.1f",
          Pick(rng_, {"US", "UK", "country2", "country3", "country4",
                      "country5", "country6", "country7"}),
          5.0 + 0.1 * static_cast<double>(rng_.Uniform(451)));
      episode.push_back(Render(tmpl, measure, product, k, sign, c));
    }
    for (int r = 0; r < revisits_; ++r) {
      episode.push_back(episode[rng_.Uniform(4)]);
    }
    return episode;
  }

 private:
  static std::string Render(size_t tmpl, const char* m, size_t product, int k,
                            const char* sign, const std::string& c) {
    switch (tmpl) {
      case 0:
      case 2:
        return zv::StrFormat(
            "f1 | 'year' | '%s' | 'product'.'product%zu' | %s | |\n"
            "f2 | 'year' | '%s' | v1 <- 'product'.* | %s | | "
            "v2 <- %s_v1[k=%d] D(f2, f1)\n"
            "*f3 | 'year' | '%s' | v2 | %s | |",
            m, product, c.c_str(), m, c.c_str(),
            tmpl == 0 ? "argmin" : "argmax", k, m, c.c_str());
      case 1:
        return zv::StrFormat(
            "f1 | 'year' | '%s' | v1 <- 'product'.* | %s | | "
            "v2 <- argany_v1[t %s 0] T(f1)\n"
            "*f2 | 'year' | '%s' | v2 | %s | |",
            m, c.c_str(), sign, m, c.c_str());
      default:
        return zv::StrFormat(
            "f1 | 'year' | '%s' | v1 <- 'product'.* | %s | | "
            "v2 <- R(%d, v1, f1)\n"
            "*f2 | 'year' | '%s' | v2 | %s | |",
            m, c.c_str(), k, m, c.c_str());
    }
  }

  zv::Rng rng_;
  size_t next_;
  size_t products_;
  int revisits_;
};

/// many_groups: distinct similarity / representative / outlier task
/// queries over every product, in rotation, one per episode. A light
/// `weight` filter keeps every query distinct without changing the group
/// count.
class ManyGroupsQueries : public QuerySource {
 public:
  ManyGroupsQueries(uint64_t seed, size_t client, size_t products)
      : rng_(ClientSeed(seed, client)), products_(products) {}

  std::vector<std::string> NextEpisode() override {
    const size_t tmpl = next_++ % 3;
    for (;;) {
      std::string q = Render(tmpl);
      if (seen_.insert(q).second) return {q};
    }
  }

 private:
  std::string Render(size_t tmpl) {
    const char* m = Pick(rng_, {"sales", "profit", "revenue"});
    const std::string c = zv::StrFormat(
        "weight > %.1f", 5.0 + 0.1 * static_cast<double>(rng_.Uniform(101)));
    const std::string viz =
        zv::StrFormat("bar.(y=agg('%s'))", Pick(rng_, {"sum", "avg"}));
    const char* v = viz.c_str();
    const char* cc = c.c_str();
    if (tmpl == 0) {
      const size_t p = rng_.Uniform(products_);
      const int k = static_cast<int>(5 + rng_.Uniform(11));
      return zv::StrFormat(
          "f1 | 'year' | '%s' | 'product'.'product%zu' | %s | %s |\n"
          "f2 | 'year' | '%s' | v1 <- 'product'.(* - 'product%zu') | %s | %s "
          "| v2 <- argmin_v1[k=%d] D(f1, f2)\n"
          "*f3 | 'year' | '%s' | v2 | %s | %s |",
          m, p, cc, v, m, p, cc, v, k, m, cc, v);
    }
    const int reps = static_cast<int>(8 + rng_.Uniform(5));
    if (tmpl == 1) {
      return zv::StrFormat(
          "f1 | 'year' | '%s' | v1 <- 'product'.* | %s | %s | "
          "v2 <- R(%d, v1, f1)\n"
          "*f2 | 'year' | '%s' | v2 | %s | %s |",
          m, cc, v, reps, m, cc, v);
    }
    const int k = static_cast<int>(5 + rng_.Uniform(11));
    return zv::StrFormat(
        "f1 | 'year' | '%s' | v1 <- 'product'.* | %s | %s | "
        "v2 <- R(%d, v1, f1)\n"
        "f2 | 'year' | '%s' | v2 | %s | %s |\n"
        "f3 | 'year' | '%s' | v1 | %s | %s | "
        "v3 <- argmax_v1[k=%d] min_v2 D(f3, f2)\n"
        "*f4 | 'year' | '%s' | v3 | %s | %s |",
        m, cc, v, reps, m, cc, v, m, cc, v, k, m, cc, v);
  }

  zv::Rng rng_;
  size_t products_;
  size_t next_ = 0;
  std::set<std::string> seen_;
};

/// scan_burst: distinct 1-3-row aggregate queries, no Process column. Row
/// 0 always filters a numeric range (`weight`, or `sales` under a country);
/// rows 1-2 filter only categoricals (a city/product equality pair, or a
/// city IN list), which the Roaring index answers. Row 0's lower bound ends
/// in the client index at its last digit, so clients never collide.
class ScanBurstQueries : public QuerySource {
 public:
  ScanBurstQueries(uint64_t seed, size_t client, size_t clients,
                   size_t products)
      : rng_(ClientSeed(seed, client)),
        client_(client),
        clients_(clients),
        products_(products) {}

  std::vector<std::string> NextEpisode() override {
    for (;;) {
      std::string q = Render();
      if (seen_.insert(q).second) {
        ++next_;
        return {q};
      }
    }
  }

 private:
  std::string Render() {
    const size_t rows = 1 + next_ % 3;
    std::string q;
    for (size_t j = 0; j < rows; ++j) {
      std::string pred;
      if (j == 0) {
        const double lo = 0.001 * static_cast<double>(
                                      clients_ * rng_.Uniform(20000) + client_);
        pred = next_ % 2 == 0
                   ? zv::StrFormat("weight > %.3f AND weight < %.3f",
                                   5.0 + lo, 6.0 + lo)
                   : zv::StrFormat(
                         "country='%s' AND sales >= %.3f AND sales < %.3f",
                         Pick(rng_, {"US", "UK", "country2", "country3"}),
                         60.0 + lo, 70.0 + lo);
      } else if ((next_ + j) % 2 == 0) {
        pred = zv::StrFormat("city='city%zu' AND product='product%zu'",
                             static_cast<size_t>(rng_.Uniform(40)),
                             static_cast<size_t>(rng_.Uniform(products_)));
      } else {
        const size_t a = rng_.Uniform(40);
        pred = zv::StrFormat("city IN ('city%zu', 'city%zu', 'city%zu')", a,
                             (a + 1 + rng_.Uniform(19)) % 40,
                             (a + 20 + rng_.Uniform(20)) % 40);
      }
      q += zv::StrFormat(
          "%s*f%zu | '%s' | '%s' | | %s | bar.(y=agg('%s')) |", j ? "\n" : "",
          j + 1, Pick(rng_, {"year", "month", "size", "country", "category"}),
          Pick(rng_, {"sales", "profit", "revenue"}), pred.c_str(),
          Pick(rng_, {"sum", "avg", "count", "max"}));
    }
    return q;
  }

  zv::Rng rng_;
  size_t client_;
  size_t clients_;
  size_t products_;
  size_t next_ = 0;
  std::set<std::string> seen_;
};

}  // namespace zvbench

#endif  // ZVBENCH_QUERIES_H_
