#include "src/crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define EESMR_SHA256_HAS_SHA_NI 1
#endif

namespace eesmr::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

#ifdef EESMR_SHA256_HAS_SHA_NI
// The SHA-NI kernel. The state is kept in the ABEF/CDGH lane order that
// sha256rnds2 expects; each group of four rounds does two rnds2 steps,
// and msg1/msg2 extend the schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  // Byte-swaps each 32-bit lane (message words are big-endian).
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds schedule words 4g..4g+3 of the current group g.
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            bswap);
      } else {
        const __m128i prev = w[(g + 3) % 4];
        cur = _mm_sha256msg1_epu32(cur, w[(g + 1) % 4]);
        cur = _mm_add_epi32(cur, _mm_alignr_epi8(prev, w[(g + 2) % 4], 4));
        cur = _mm_sha256msg2_epu32(cur, prev);
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}
#endif

// Picked once, on first use: SHA-NI when the CPU has it.
detail::Sha256Kernel default_kernel() {
  static const detail::Sha256Kernel kernel = [] {
    const detail::Sha256Kernel sha_ni = detail::sha256_sha_ni_kernel();
    return sha_ni != nullptr ? sha_ni : &detail::sha256_compress_portable;
  }();
  return kernel;
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t* state,
                              const std::uint8_t* blocks,
                              std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(blocks[4 * i]) << 24 |
             static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Kernel sha256_sha_ni_kernel() {
#ifdef EESMR_SHA256_HAS_SHA_NI
  // May run before main() (a static initializer that hashes), so the
  // feature bits are initialised explicitly.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3")) {
    return &compress_sha_ni;
  }
#endif
  return nullptr;
}

Sha256Digest sha256_with(Sha256Kernel kernel, BytesView data,
                         std::size_t split) {
  split = std::min(split, data.size());
  Sha256 ctx(kernel);
  ctx.update(data.first(split));
  ctx.update(data.subspan(split));
  return ctx.finish();
}

}  // namespace detail

Sha256::Sha256() : kernel_(default_kernel()) { reset(); }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_ = 0;
}

void Sha256::update(BytesView data) {
  total_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == 64) {
      kernel_(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t nblocks = (data.size() - off) / 64;
  if (nblocks > 0) {
    kernel_(state_.data(), data.data() + off, nblocks);
    off += 64 * nblocks;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

Sha256Digest Sha256::finish() {
  const std::uint64_t bit_len = total_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  update(BytesView(pad, pad_len));
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(BytesView(len_be, 8));

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::hash(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Bytes sha256(BytesView data) {
  const Sha256Digest d = Sha256::hash(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace eesmr::crypto
