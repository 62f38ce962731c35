// Simulated BLS-style aggregate signatures for O(1)-size certificates.
//
// Real BLS (e.g. BLS12-381 as used by AntelopeIO/Savanna quorum
// certificates) gives each node a share sig_i = H(m)^{sk_i}; shares over
// the *same* message combine by group addition into one 48-byte G1 point,
// verified against the sum of the signers' public keys with two pairings.
// The properties certificates rely on are:
//   * a share is bound to (node, message) and unforgeable,
//   * aggregation is order-independent and O(1) in output size,
//   * an aggregate verifies iff it is exactly the fold of one share from
//     every claimed signer — extra, missing, or duplicated signers fail.
//
// This module reproduces those properties with keyed hashes, in the same
// "simulated signature" trust model as crypto::Keyring::simulated (see
// signer.hpp): each node's share is a per-node keyed hash of the message
// extended to the BLS G1 wire size, and aggregation is a byte-wise XOR
// fold. Inside one honest process nobody can produce another node's
// share without its secret, XOR is commutative/associative like group
// addition, and a duplicated share cancels itself out — so duplicate
// signers are rejected *structurally*, exactly as a doubled term shifts
// the group sum in real BLS. Energy is accounted with the dedicated
// agg_* entries of the cost model (energy/cost_model.hpp), not the cost
// of the hashes actually computed.
#pragma once

#include <memory>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"
#include "src/crypto/hmac.hpp"

namespace eesmr {
class Writer;
class Reader;
}  // namespace eesmr

namespace eesmr::crypto {

/// Wire size of one share and of one aggregate: a compressed BLS12-381
/// G1 point.
constexpr std::size_t kAggSignatureBytes = 48;

/// Set of signer node-ids backing one aggregate signature. Fixed logical
/// width `n` (the certificate's signer universe); bits beyond `n` are
/// rejected on decode so every logical value has exactly one encoding.
class SignerBitset {
 public:
  SignerBitset() = default;
  explicit SignerBitset(std::size_t n);

  void set(NodeId id);
  [[nodiscard]] bool test(NodeId id) const;
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::vector<NodeId> members() const;

  void encode_into(Writer& w) const;
  /// Bytes encode_into() appends.
  [[nodiscard]] std::size_t encoded_size() const { return 4 + bits_.size(); }
  static SignerBitset decode_from(Reader& r);

  [[nodiscard]] bool operator==(const SignerBitset& o) const {
    return n_ == o.n_ && bits_ == o.bits_;
  }

 private:
  std::size_t n_ = 0;
  Bytes bits_;  ///< ceil(n/8) bytes, little bit-endian, tail bits zero.
};

/// Key directory for the aggregate scheme: node i produces shares with
/// share(i, m); anyone verifies a share or a folded aggregate against
/// the public directory. Immutable once built, shared across a cluster.
class AggKeyring {
 public:
  /// Deterministic in `seed`; independent of the base Keyring's secrets.
  static std::shared_ptr<AggKeyring> simulated(std::size_t n,
                                               std::uint64_t seed);

  /// Node `id`'s 48-byte share over `msg`.
  [[nodiscard]] Bytes share(NodeId id, BytesView msg) const;

  /// True iff `sig` is exactly node `id`'s share over `msg`.
  [[nodiscard]] bool verify_share(NodeId id, BytesView msg,
                                  BytesView sig) const;

  /// True iff `agg` is the XOR-fold of exactly one share over `msg` from
  /// every member of `signers` (and `signers` is non-empty).
  [[nodiscard]] bool verify_aggregate(const SignerBitset& signers,
                                      BytesView msg, BytesView agg) const;

  /// Identity element of aggregation (48 zero bytes).
  static Bytes empty_aggregate();

  /// acc ^= share. Order-independent; folding the same share twice
  /// cancels it (the structural duplicate-signer defence).
  static void fold_into(Bytes& acc, BytesView share);

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

 private:
  AggKeyring() = default;
  std::vector<HmacSha256Key> keys_;  ///< One per node.
};

}  // namespace eesmr::crypto
