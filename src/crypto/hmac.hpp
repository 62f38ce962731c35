// HMAC-SHA256 (RFC 2104), used as the paper's MAC scheme and under every
// simulated signature and aggregate share.
#pragma once

#include "src/common/bytes.hpp"
#include "src/crypto/sha256.hpp"

namespace eesmr::crypto {

/// An HMAC-SHA256 key with its (key ^ ipad) and (key ^ opad) blocks
/// already absorbed, so each MAC skips those two compressions: a message
/// of up to 55 bytes costs 2 compressions instead of 4.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(BytesView key);

  /// HMAC-SHA256(key, msg).
  [[nodiscard]] Sha256Digest mac(BytesView msg) const;

 private:
  Sha256 inner_;  ///< After absorbing key ^ ipad.
  Sha256 outer_;  ///< After absorbing key ^ opad.
};

/// HMAC-SHA256(key, msg) -> 32 bytes, for a key used once.
Sha256Digest hmac_sha256(BytesView key, BytesView msg);

/// Same, as an owned buffer.
Bytes hmac(BytesView key, BytesView msg);

/// Constant-time-ish comparison of two MACs (length mismatch -> false).
bool mac_equal(BytesView a, BytesView b);

}  // namespace eesmr::crypto
