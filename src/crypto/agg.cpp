#include "src/crypto/agg.hpp"

#include <stdexcept>

#include "src/common/serde.hpp"
#include "src/crypto/hmac.hpp"
#include "src/crypto/sha256.hpp"

namespace eesmr::crypto {

SignerBitset::SignerBitset(std::size_t n) : n_(n), bits_((n + 7) / 8, 0) {}

void SignerBitset::set(NodeId id) {
  if (id >= n_) throw std::out_of_range("SignerBitset::set: id out of range");
  bits_[id / 8] |= static_cast<std::uint8_t>(1u << (id % 8));
}

bool SignerBitset::test(NodeId id) const {
  if (id >= n_) return false;
  return (bits_[id / 8] >> (id % 8)) & 1u;
}

std::size_t SignerBitset::count() const {
  std::size_t c = 0;
  for (std::uint8_t b : bits_) {
    while (b != 0) {
      c += b & 1u;
      b >>= 1;
    }
  }
  return c;
}

std::vector<NodeId> SignerBitset::members() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < n_; ++id) {
    if (test(id)) out.push_back(id);
  }
  return out;
}

void SignerBitset::encode_into(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(n_));
  w.raw(bits_);
}

SignerBitset SignerBitset::decode_from(Reader& r) {
  const std::uint32_t n = r.u32();
  // Bound the universe by the bytes actually present before allocating:
  // a hostile 4G-node count must throw, not reserve half a gigabyte.
  const std::size_t nbytes = (static_cast<std::size_t>(n) + 7) / 8;
  if (nbytes > r.remaining()) {
    throw SerdeError("SignerBitset: truncated bit array");
  }
  SignerBitset s(n);
  Bytes raw = r.raw(nbytes);
  // Reject set bits at or beyond n so every logical set has exactly one
  // byte representation (signed content must be byte-identical).
  if (s.n_ % 8 != 0) {
    const std::uint8_t tail_mask =
        static_cast<std::uint8_t>(0xFFu << (s.n_ % 8));
    if (!raw.empty() && (raw.back() & tail_mask) != 0) {
      throw SerdeError("SignerBitset: bits beyond universe");
    }
  }
  s.bits_ = std::move(raw);
  return s;
}

namespace {

Bytes agg_node_secret(std::uint64_t seed, NodeId id) {
  Writer w;
  w.str("eesmr/agg-keyring/v1");
  w.u64(seed);
  w.u32(id);
  return sha256(w.buffer());
}

}  // namespace

std::shared_ptr<AggKeyring> AggKeyring::simulated(std::size_t n,
                                                  std::uint64_t seed) {
  auto kr = std::shared_ptr<AggKeyring>(new AggKeyring());
  kr->keys_.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    kr->keys_.emplace_back(agg_node_secret(seed, id));
  }
  return kr;
}

Bytes AggKeyring::share(NodeId id, BytesView msg) const {
  if (id >= keys_.size()) {
    throw std::out_of_range("AggKeyring::share: id out of range");
  }
  // 48-byte share: HMAC(secret, msg) followed by the first 16 bytes of
  // its re-hash. Deterministic, bound to (node, msg), full wire width.
  const Sha256Digest mac = keys_[id].mac(msg);
  const Sha256Digest ext = Sha256::hash(mac);
  Bytes out(kAggSignatureBytes);
  std::copy(mac.begin(), mac.end(), out.begin());
  std::copy(ext.begin(), ext.begin() + 16, out.begin() + 32);
  return out;
}

bool AggKeyring::verify_share(NodeId id, BytesView msg, BytesView sig) const {
  if (id >= keys_.size() || sig.size() != kAggSignatureBytes) return false;
  return mac_equal(share(id, msg), sig);
}

bool AggKeyring::verify_aggregate(const SignerBitset& signers, BytesView msg,
                                  BytesView agg) const {
  if (agg.size() != kAggSignatureBytes) return false;
  if (signers.count() == 0) return false;
  Bytes expect = empty_aggregate();
  for (NodeId id = 0; id < signers.size(); ++id) {
    if (!signers.test(id)) continue;
    if (id >= keys_.size()) return false;
    fold_into(expect, share(id, msg));
  }
  return mac_equal(expect, agg);
}

Bytes AggKeyring::empty_aggregate() { return Bytes(kAggSignatureBytes, 0); }

void AggKeyring::fold_into(Bytes& acc, BytesView share) {
  if (acc.size() != kAggSignatureBytes || share.size() != kAggSignatureBytes) {
    throw std::invalid_argument("AggKeyring::fold_into: bad share size");
  }
  for (std::size_t i = 0; i < kAggSignatureBytes; ++i) acc[i] ^= share[i];
}

}  // namespace eesmr::crypto
