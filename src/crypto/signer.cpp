#include "src/crypto/signer.hpp"

#include <algorithm>
#include <array>

namespace eesmr::crypto {

namespace {

constexpr std::array<SchemeInfo, 11> kSchemeInfo = {{
    {"HMAC-SHA256", 32},
    {"ECDSA-BP160R1", 40},
    {"ECDSA-BP256R1", 64},
    {"ECDSA-SECP192R1", 48},
    {"ECDSA-SECP192K1", 48},
    {"ECDSA-SECP224R1", 56},
    {"ECDSA-SECP256R1", 64},
    {"ECDSA-SECP256K1", 64},
    {"RSA-1024", 128},
    {"RSA-1260", 158},
    {"RSA-2048", 256},
}};

Bytes node_secret(std::uint64_t seed, NodeId id) {
  Bytes material(16, 0);
  for (int i = 0; i < 8; ++i) {
    material[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seed >> (8 * i));
    material[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(id) >> (8 * i));
  }
  return sha256(material);
}

}  // namespace

const SchemeInfo& scheme_info(SchemeId id) {
  return kSchemeInfo[static_cast<std::size_t>(id)];
}

std::vector<SchemeId> all_schemes() {
  std::vector<SchemeId> out;
  for (std::size_t i = 0; i < kSchemeInfo.size(); ++i) {
    out.push_back(static_cast<SchemeId>(i));
  }
  return out;
}

Bytes NodeKey::sign(BytesView msg) const {
  const Sha256Digest mac = key_.mac(msg);
  Bytes tag(width_, 0xee);
  std::copy_n(mac.begin(), std::min(width_, mac.size()), tag.begin());
  return tag;
}

bool NodeKey::verify(BytesView msg, BytesView sig) const {
  if (sig.size() != width_) return false;
  return mac_equal(sign(msg), sig);
}

std::shared_ptr<Keyring> Keyring::simulated(SchemeId scheme, std::size_t n,
                                            std::uint64_t seed) {
  auto ring = std::shared_ptr<Keyring>(new Keyring(scheme));
  ring->keys_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    ring->keys_.emplace_back(node_secret(seed, i),
                             scheme_info(scheme).signature_bytes);
  }
  return ring;
}

}  // namespace eesmr::crypto
