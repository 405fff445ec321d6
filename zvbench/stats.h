/// \file stats.h
/// \brief Exact order statistics over raw samples, process resource usage,
/// and the byte digest the output check compares.
///
/// Percentiles are nearest-rank order statistics: the reported value is
/// always one of the measured samples, never a histogram bucket edge. A
/// bucket ladder at 8 buckets per octave moves in ~9% steps, as wide as a
/// regression bound, so it cannot resolve the changes the bounds gate.

#ifndef ZVBENCH_STATS_H_
#define ZVBENCH_STATS_H_

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace zvbench {

/// One percentile with the sample count it rests on and how many samples
/// lie strictly beyond it, so a reader can judge whether it is supported.
struct OrderStat {
  double value = 0;
  size_t n = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile of `sorted` (ascending): the sample at rank
/// ceil(q * n). Empty input yields a zero-sample OrderStat.
inline OrderStat Percentile(const std::vector<double>& sorted, double q) {
  OrderStat out;
  out.n = sorted.size();
  if (sorted.empty()) return out;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(out.n)));
  rank = std::clamp<size_t>(rank, 1, out.n);
  out.value = sorted[rank - 1];
  out.beyond = out.n - rank;
  return out;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Median of a small unsorted sample (set-up repetitions).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5).value;
}

/// User + system CPU time of the whole process, in ms.
inline double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Peak resident set size of the process so far, in MB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

/// FNV-1a over bytes: the fingerprint two outputs are compared by. Doubles
/// are fed by bit pattern, so equal digests mean byte-identical results.
class Digest {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace zvbench

#endif  // ZVBENCH_STATS_H_
