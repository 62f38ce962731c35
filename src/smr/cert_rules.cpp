#include "src/smr/cert_rules.hpp"

#include <vector>

#include "src/common/serde.hpp"
#include "src/crypto/fingerprint.hpp"

namespace eesmr::smr {

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
  const auto stale = [height](const auto& kv) { return kv.second <= height; };
  std::erase_if(sigs_, stale);
  std::erase_if(aggs_, stale);
}

}  // namespace eesmr::smr
