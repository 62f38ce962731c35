// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for block hashing, HMAC, PKCS#1 v1.5 digests and ECDSA message
// digests. The padding and buffering logic is portable; the compression
// function has two kernels with identical output:
//  * a portable C++ loop, the only kernel compiled on non-x86 targets;
//  * an x86 SHA-NI kernel (`sha256rnds2`/`msg1`/`msg2`), compiled with a
//    per-function target attribute so the build needs no `-msha` or
//    `-march` flag.
// The kernel is chosen once per process from the CPU's feature bits
// (`__builtin_cpu_supports("sha")`); there is no option to override it.
// The test suite runs the NIST vectors against both kernels and compares
// them on random inputs.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/bytes.hpp"

namespace eesmr::crypto {

/// 32-byte digest.
using Sha256Digest = std::array<std::uint8_t, 32>;

namespace detail {

// Test-only access to the two kernels behind Sha256. Production code
// always goes through Sha256, which uses the kernel picked at start-up.

/// A compression kernel: folds `nblocks` consecutive 64-byte blocks into
/// the eight state words.
using Sha256Kernel = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t nblocks);

/// The portable kernel (every target).
void sha256_compress_portable(std::uint32_t* state,
                              const std::uint8_t* blocks, std::size_t nblocks);

/// The SHA-NI kernel, or nullptr when the build target is not x86 or the
/// CPU lacks the SHA extensions.
Sha256Kernel sha256_sha_ni_kernel();

/// SHA-256 of `data` computed with `kernel`, fed to update() in two parts
/// split at `split` (clamped to the data size).
Sha256Digest sha256_with(Sha256Kernel kernel, BytesView data,
                         std::size_t split);

}  // namespace detail

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  void reset();
  void update(BytesView data);
  /// Finalizes and returns the digest. The context must be reset() before
  /// reuse.
  Sha256Digest finish();

  /// One-shot convenience.
  static Sha256Digest hash(BytesView data);

 private:
  friend Sha256Digest detail::sha256_with(detail::Sha256Kernel, BytesView,
                                          std::size_t);
  explicit Sha256(detail::Sha256Kernel kernel) : kernel_(kernel) { reset(); }

  detail::Sha256Kernel kernel_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

/// Digest as an owned byte buffer (for serde and signatures).
Bytes sha256(BytesView data);

}  // namespace eesmr::crypto
