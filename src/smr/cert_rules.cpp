#include "src/smr/cert_rules.hpp"

#include <bit>
#include <utility>
#include <vector>

#include "src/common/serde.hpp"
#include "src/crypto/fingerprint.hpp"

namespace eesmr::smr {

std::size_t FingerprintHeights::home(std::uint64_t fp) const {
  // Fibonacci hashing: the multiply spreads keys that differ only in
  // their high bits over the slots.
  return static_cast<std::size_t>((fp * 0x9E3779B97F4A7C15ull) >> shift_);
}

void FingerprintHeights::emplace(std::uint64_t fp, std::uint64_t height) {
  if (2 * (size_ + 1) > slots_.size()) {
    rehash(slots_.empty() ? 16 : 2 * slots_.size());
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(fp);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.height_plus_one == 0) {
      slot = {fp, height + 1};
      ++size_;
      return;
    }
    if (slot.fp == fp) return;
  }
}

std::optional<std::uint64_t> FingerprintHeights::find(std::uint64_t fp) const {
  if (size_ == 0) return std::nullopt;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(fp);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.height_plus_one == 0) return std::nullopt;
    if (slot.fp == fp) return slot.height_plus_one - 1;
  }
}

void FingerprintHeights::drop_at_or_below(std::uint64_t height) {
  // Empty slots go too: the survivors end up packed at the front.
  std::erase_if(slots_, [height](const Slot& slot) {
    return slot.height_plus_one == 0 || slot.height_plus_one - 1 <= height;
  });
  std::size_t slots = 16;
  while (slots < 2 * (slots_.size() + 1)) slots *= 2;
  rehash(slots);
}

void FingerprintHeights::rehash(std::size_t slots) {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots));
  shift_ = 64 - std::countr_zero(slots);
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.height_plus_one != 0) emplace(slot.fp, slot.height_plus_one - 1);
  }
}

bool CertRules::individual_ok(const CertSignatures& cert,
                              std::size_t quorum) const {
  if (cert.sigs.size() < quorum) return false;
  std::vector<bool> seen(n_);
  for (const auto& [author, sig] : cert.sigs) {
    if (author >= n_ || seen[author]) return false;
    seen[author] = true;
  }
  return true;
}

bool CertRules::aggregate_ok(const CertSignatures& cert, std::size_t quorum,
                             const MembershipState& membership) const {
  if (cert.signers.size() > n_ || cert.signers.count() < quorum) return false;
  // The generation must still be inside the policy-history window.
  if (!membership.known(cert.gen)) return false;
  for (NodeId id = 0; id < cert.signers.size(); ++id) {
    if (cert.signers.test(id) && !membership.is_signer(id, cert.gen)) {
      return false;
    }
  }
  return true;
}

const std::vector<CertRules::Lookup>& CertRules::lookup(
    const CertSignatures& cert, BytesView preimage) {
  lookup_.clear();
  for (const auto& [author, sig] : cert.sigs) {
    const std::uint64_t fp = crypto::fingerprint(author, preimage, sig);
    const bool cached = sigs_.contains(fp);
    if (cached) ++hits_;
    lookup_.push_back({fp, cached});
  }
  return lookup_;
}

crypto::Sha256Digest CertRules::agg_key(BytesView preimage,
                                        const CertSignatures& cert) {
  Writer w;
  w.bytes(preimage);
  cert.signers.encode_into(w);
  w.raw(cert.agg_sig);
  return crypto::Sha256::hash(w.buffer());
}

bool CertRules::agg_cached(const crypto::Sha256Digest& key) {
  if (!aggs_.contains(key)) return false;
  ++hits_;
  return true;
}

void CertRules::gc(std::uint64_t height) {
  sigs_.drop_at_or_below(height);
  std::erase_if(aggs_,
                [height](const auto& kv) { return kv.second <= height; });
}

}  // namespace eesmr::smr
