#include "src/smr/node_crypto.hpp"

#include <utility>

#include "src/crypto/fingerprint.hpp"
#include "src/crypto/sha256.hpp"

namespace eesmr::smr {

NodeCrypto::NodeCrypto(NodeId id, const char* component, std::size_t replicas,
                       std::shared_ptr<crypto::Keyring> keyring,
                       std::shared_ptr<crypto::AggKeyring> agg,
                       energy::Meter* meter, prof::Profiler* profiler,
                       crypto::VerifyMemo* memo)
    : id_(id),
      component_(component),
      keyring_(std::move(keyring)),
      agg_(std::move(agg)),
      meter_(meter),
      profiler_(profiler),
      memo_(memo),
      certs_(replicas) {}

void NodeCrypto::charge(energy::Category cat, double mj, const char* op,
                        const char* site) {
  if (meter_ != nullptr) meter_->charge(cat, mj);
  if (profiler_ != nullptr && op != nullptr) {
    profiler_->count_crypto(component_, op, site);
  }
}

Bytes NodeCrypto::sign(BytesView preimage, bool share, const char* site,
                       bool metered) {
  Bytes sig = share ? agg_->share(id_, preimage)
                    : keyring_->signer(id_).sign(preimage);
  if (metered) {
    charge(energy::Category::kSign,
           share ? energy::agg_sign_energy_mj()
                 : energy::sign_energy_mj(keyring_->scheme()),
           "sign", site);
  }
  return sig;
}

bool NodeCrypto::check(std::uint64_t fp, NodeId author, BytesView preimage,
                       BytesView sig, bool share, bool record) {
  const auto verify = [&] {
    return share ? agg_->verify_share(author, preimage, sig)
                 : keyring_->verify(author, preimage, sig);
  };
  if (memo_ == nullptr) return verify();
  if (record) return memo_->check(fp, author, preimage, sig, verify);
  const auto stored = memo_->peek(fp, author, preimage, sig);
  return stored.has_value() ? *stored : verify();
}

bool NodeCrypto::verify(NodeId author, BytesView preimage, BytesView sig,
                        bool share, const char* site,
                        std::optional<std::uint64_t> remember_at) {
  const std::uint64_t fp = memo_ != nullptr || remember_at.has_value()
                               ? crypto::fingerprint(author, preimage, sig)
                               : 0;
  charge(energy::Category::kVerify,
         share ? energy::agg_verify_energy_mj(1)
               : energy::verify_energy_mj(keyring_->scheme()),
         "verify", site);
  const bool ok = check(fp, author, preimage, sig, share, /*record=*/true);
  if (ok && remember_at.has_value()) certs_.remember_sig(fp, *remember_at);
  return ok;
}

bool NodeCrypto::verify_msg(const Msg& m, bool share,
                            std::optional<std::uint64_t> remember_at) {
  preimage_writer_.clear();
  m.preimage_into(preimage_writer_);
  return verify(m.author, preimage_writer_.buffer(), m.sig, share,
                crypto_site(m.type), remember_at);
}

bool NodeCrypto::verify_request(const ClientRequest& req) {
  return verify(req.client, req.preimage(), req.sig, false, "request");
}

bool NodeCrypto::verify_cert(const CertSignatures& cert,
                             const Bytes& preimage, CertScheme scheme,
                             std::size_t quorum,
                             const MembershipState& membership,
                             std::uint64_t height, const char* site) {
  // Under the aggregate scheme certificate-bound messages carry shares,
  // not directory signatures: a cert in the other form cannot be honest.
  if (cert.scheme != scheme) return false;
  if (scheme == CertScheme::kAggregate) {
    if (!certs_.aggregate_ok(cert, quorum, membership)) return false;
    // Whole-certificate cache: an aggregate is one pairing-based check, so
    // the cache keys the (preimage, signers, aggregate) triple as a unit.
    const auto key = CertRules::agg_key(preimage, cert);
    if (certs_.agg_cached(key)) return true;
    charge(energy::Category::kVerify,
           energy::agg_verify_energy_mj(cert.signers.count()), "verify",
           site);
    const bool ok =
        agg_->verify_aggregate(cert.signers, preimage, cert.agg_sig);
    if (ok) certs_.remember_agg(key, height);
    return ok;
  }
  // Accounting first, before any validity check can return: one metered
  // verification per contained signature — minus the signatures this
  // node already verified individually when the votes arrived, which
  // the verified-signature cache answers for free at tally time.
  const auto& found = certs_.lookup(cert, preimage);
  for (const auto& [fp, cached] : found) {
    if (cached) continue;
    charge(energy::Category::kVerify,
           energy::verify_energy_mj(keyring_->scheme()), "verify", site);
  }
  if (!certs_.individual_ok(cert, quorum)) return false;
  for (std::size_t i = 0; i < found.size(); ++i) {
    const auto& [author, sig] = cert.sigs[i];
    // A cache hit settles the accounting, not validity: its exact
    // signature is still confirmed, unmetered and without a new verdict.
    if (!check(found[i].fp, author, preimage, sig, /*share=*/false,
               /*record=*/!found[i].cached)) {
      return false;
    }
  }
  return true;
}

void NodeCrypto::combine(std::size_t shares) {
  charge(energy::Category::kSign, energy::agg_combine_energy_mj(shares));
}

void NodeCrypto::fold(CertSignatures& cert,
                      const MembershipState& membership) {
  combine(cert.sigs.size());
  cert.fold(certs_.replicas(),
            membership.generation_for_signers(cert.signer_list()));
}

BlockHash NodeCrypto::hash_block(const Block& b) {
  charge(energy::Category::kHash, energy::hash_energy_mj(b.encoded_size()),
         "hash", "block");
  return b.hash();
}

Bytes NodeCrypto::hash(BytesView bytes, const char* site) {
  charge(energy::Category::kHash, energy::hash_energy_mj(bytes.size()),
         "hash", site);
  return crypto::sha256(bytes);
}

}  // namespace eesmr::smr
