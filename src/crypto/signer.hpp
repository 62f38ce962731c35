// Signature schemes and the per-system key directory (the paper's "PKI is
// used to set up keys before starting the protocol").
//
// Every node signs with a keyed-hash *simulated* signature: functionally
// a signature inside one trusted process (sign/verify/unforgeability-by-
// honest-code), sized and energy-accounted as the scheme it emulates. The
// energy model (energy/cost_model.hpp) charges Table 2's calibrated
// per-operation costs, not the cost of the hashes actually computed.
#pragma once

#include <memory>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"
#include "src/crypto/hmac.hpp"

namespace eesmr::crypto {

/// Every signature scheme whose energy Table 2 reports, plus HMAC.
enum class SchemeId : std::uint8_t {
  kHmacSha256,
  kEcdsaBp160r1,
  kEcdsaBp256r1,
  kEcdsaSecp192r1,
  kEcdsaSecp192k1,
  kEcdsaSecp224r1,
  kEcdsaSecp256r1,
  kEcdsaSecp256k1,
  kRsa1024,
  kRsa1260,
  kRsa2048,
};

struct SchemeInfo {
  const char* name;
  std::size_t signature_bytes;
};

/// Static metadata for a scheme (name, wire size of one signature).
const SchemeInfo& scheme_info(SchemeId id);

/// All schemes, in Table-2 order (for sweeps).
std::vector<SchemeId> all_schemes();

/// One node's key. A signature is HMAC-SHA256(secret, msg), truncated or
/// padded with 0xee to the emulated scheme's wire width. Secure inside
/// one trusted process because only honest simulation code can reach
/// another node's secret.
class NodeKey {
 public:
  NodeKey(BytesView secret, std::size_t width) : key_(secret), width_(width) {}

  [[nodiscard]] Bytes sign(BytesView msg) const;
  /// False for a signature of the wrong width, without computing a MAC.
  [[nodiscard]] bool verify(BytesView msg, BytesView sig) const;

 private:
  HmacSha256Key key_;
  std::size_t width_;
};

/// Key directory for an n-node system: node i signs with signer(i); anyone
/// verifies node i's signatures with verify(i, ...). Immutable once built.
class Keyring {
 public:
  /// Keys for nodes 0..n-1 emulating `scheme`'s wire size. Deterministic
  /// in `seed`.
  static std::shared_ptr<Keyring> simulated(SchemeId scheme, std::size_t n,
                                            std::uint64_t seed);

  /// Throws std::out_of_range for an id outside the directory.
  [[nodiscard]] const NodeKey& signer(NodeId id) const { return keys_.at(id); }
  /// False for an id outside the directory.
  [[nodiscard]] bool verify(NodeId claimed, BytesView msg,
                            BytesView sig) const {
    return claimed < keys_.size() && keys_[claimed].verify(msg, sig);
  }

  [[nodiscard]] SchemeId scheme() const { return scheme_; }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

 private:
  explicit Keyring(SchemeId scheme) : scheme_(scheme) {}

  SchemeId scheme_;
  std::vector<NodeKey> keys_;
};

}  // namespace eesmr::crypto
