/// \file hash.h
/// \brief A 128-bit FNV-1a accumulator for cache fingerprints.
///
/// Two independent multiply-xor streams (different offset bases AND
/// different multiplier primes), rendered as 32 hex chars. Used wherever a
/// wrong-collision failure mode would be serving another query's data
/// (ResultCache fingerprints and the sketch hash they fold in) — 128 bits
/// makes that probability negligible at any realistic cache population.

#ifndef ZV_COMMON_HASH_H_
#define ZV_COMMON_HASH_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace zv {

struct Fingerprint128 {
  uint64_t a = 14695981039346656037ull;  ///< FNV-1a offset basis
  uint64_t b = 0x9e3779b97f4a7c15ull;    ///< golden-ratio offset

  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      // Two genuinely different odd multipliers (FNV-1a's prime and
      // XXH64's second prime), not just different seeds — identical
      // recurrences would make the streams correlated and the 128-bit
      // independence claim hollow.
      a = (a ^ p[i]) * 1099511628211ull;
      b = (b ^ p[i]) * 0xc2b2ae3d27d4eb4full;
    }
  }
  /// Length-prefixed, so adjacent strings never concatenate ambiguously.
  void Str(const std::string& s) {
    const uint64_t len = s.size();
    Bytes(&len, sizeof(len));
    Bytes(s.data(), s.size());
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }  // bit pattern, not value

  std::string Hex() const {
    char out[33];
    std::snprintf(out, sizeof(out), "%016llx%016llx",
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    return std::string(out, 32);
  }
};

}  // namespace zv

#endif  // ZV_COMMON_HASH_H_
