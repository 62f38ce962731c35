// 64-bit fingerprint for host-side cache and pool indexes.
//
// Not cryptographic and never charged: it only spreads keys over hash
// buckets. A table indexed by it either stores its exact key and
// compares it on a match, or (ReplicaBase's verified-signature cache)
// lets a match decide only accounting, never validity, so two inputs
// that share a fingerprint never share a verdict. No output may depend
// on a fingerprint value or on the iteration order of a table keyed by
// one.
//
// wyhash-style: 16 bytes per step folded through a 64x64->128-bit
// multiply whose halves are xored. Loads go through memcpy, so no input
// alignment is assumed.
#pragma once

#include <cstdint>
#include <cstring>

#include "src/common/bytes.hpp"

namespace eesmr::crypto {

namespace detail {
inline constexpr std::uint64_t kFp0 = 0xa0761d6478bd642fULL;
inline constexpr std::uint64_t kFp1 = 0xe7037ed1a0b428dbULL;
inline constexpr std::uint64_t kFp2 = 0x8ebc6af09c88c6e3ULL;

inline std::uint64_t fp_mix(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

template <typename T>
std::uint64_t fp_load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
}  // namespace detail

/// Fingerprint of `bytes`; `seed` chains several fields into one value.
inline std::uint64_t fingerprint(BytesView bytes, std::uint64_t seed = 0) {
  using detail::fp_load;
  using detail::fp_mix;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h = fp_mix(seed ^ detail::kFp0, n ^ detail::kFp1);
  for (; n > 16; n -= 16, p += 16) {
    h = fp_mix(fp_load<std::uint64_t>(p) ^ detail::kFp1,
               fp_load<std::uint64_t>(p + 8) ^ h);
  }
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  if (n > 8) {
    a = fp_load<std::uint64_t>(p);
    b = fp_load<std::uint64_t>(p + n - 8);
  } else if (n >= 4) {
    a = fp_load<std::uint32_t>(p);
    b = fp_load<std::uint32_t>(p + n - 4);
  } else if (n > 0) {
    a = (std::uint64_t{p[0]} << 16) | (std::uint64_t{p[n / 2]} << 8) | p[n - 1];
  }
  return fp_mix(fp_mix(a ^ detail::kFp1, b ^ h) ^ detail::kFp2,
                bytes.size() ^ detail::kFp0);
}

/// Fingerprint of one signature check: (author, preimage, signature).
inline std::uint64_t fingerprint(std::uint32_t author, BytesView preimage,
                                 BytesView sig) {
  return fingerprint(sig, fingerprint(preimage, author));
}

}  // namespace eesmr::crypto
