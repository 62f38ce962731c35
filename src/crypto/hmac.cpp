#include "src/crypto/hmac.hpp"

#include <cstring>

namespace eesmr::crypto {

HmacSha256Key::HmacSha256Key(BytesView key) {
  std::uint8_t k[64] = {0};
  if (key.size() > 64) {
    const Sha256Digest kd = Sha256::hash(key);
    std::memcpy(k, kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }

  std::uint8_t ipad[64];
  std::uint8_t opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.update(BytesView(ipad, 64));
  outer_.update(BytesView(opad, 64));
}

Sha256Digest HmacSha256Key::mac(BytesView msg) const {
  Sha256 inner = inner_;
  inner.update(msg);
  const Sha256Digest inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Sha256Digest hmac_sha256(BytesView key, BytesView msg) {
  return HmacSha256Key(key).mac(msg);
}

Bytes hmac(BytesView key, BytesView msg) {
  const Sha256Digest d = hmac_sha256(key, msg);
  return Bytes(d.begin(), d.end());
}

bool mac_equal(BytesView a, BytesView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace eesmr::crypto
