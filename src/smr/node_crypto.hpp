// The metered crypto of one node: the one place a sign, verify, fold or
// hash becomes energy. Each operation charges its cost-model mJ to the
// node's meter (energy::Category kSign, kVerify or kHash), counts one
// (component, op, site) crypto op on the profiler, and runs. Signature
// checks go through the cluster's verdict memo (crypto::VerifyMemo) when
// there is one, and certificate checks through this node's verification
// caches (CertRules). A replica, a client and a Byzantine client each
// own one. TrustedCounter prices its attestations itself
// (src/trusted/): it models a separate device.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "src/crypto/signer.hpp"
#include "src/crypto/verify_memo.hpp"
#include "src/obs/prof.hpp"
#include "src/smr/block.hpp"
#include "src/smr/cert_rules.hpp"
#include "src/smr/request.hpp"

namespace eesmr::smr {

class NodeCrypto {
 public:
  /// Node `id` counts its ops under `component` ("replica", "client").
  /// Certificate signers must be below `replicas` (n). `agg` is needed
  /// only for shares and aggregates. `meter`, `profiler` and `memo` are
  /// not owned and may be nullptr: then nothing is charged, nothing is
  /// counted, and every signature is verified physically, with no
  /// fingerprint computed for a memo.
  NodeCrypto(NodeId id, const char* component, std::size_t replicas,
             std::shared_ptr<crypto::Keyring> keyring,
             std::shared_ptr<crypto::AggKeyring> agg, energy::Meter* meter,
             prof::Profiler* profiler, crypto::VerifyMemo* memo);

  /// This node's signature over `preimage`: an aggregate-scheme share
  /// when `share`, else its directory signature. Charges the modeled
  /// sign and counts it at `site` unless `metered` is false.
  [[nodiscard]] Bytes sign(BytesView preimage, bool share, const char* site,
                           bool metered = true);

  /// Check `author`'s `sig` over `preimage`: a directory signature, or a
  /// share when `share` (priced as a one-signer aggregate check). Charges
  /// and counts one verify at `site`. With `remember_at`, a valid
  /// signature enters the verified-signature cache at that committed
  /// height, so a certificate that re-carries it is not charged again.
  [[nodiscard]] bool verify(NodeId author, BytesView preimage, BytesView sig,
                            bool share, const char* site,
                            std::optional<std::uint64_t> remember_at = {});
  /// verify() of `m`'s signature over its preimage at crypto_site(m.type).
  [[nodiscard]] bool verify_msg(const Msg& m, bool share,
                                std::optional<std::uint64_t> remember_at);
  /// verify() of the client signature embedded in `req`, at "request".
  [[nodiscard]] bool verify_request(const ClientRequest& req);

  /// The one certificate check: the signatures `cert` carries over
  /// `preimage`, with `quorum` signers, in `scheme`'s form. An aggregate
  /// passes CertRules::aggregate_ok, then the verified-aggregate cache or
  /// one metered aggregate verify (remembered at `height`). An individual
  /// cert first charges one verify per signature the verified-signature
  /// cache does not answer, then passes CertRules::individual_ok, and
  /// last confirms every exact signature through the memo, storing no
  /// verdict for a cached one.
  [[nodiscard]] bool verify_cert(const CertSignatures& cert,
                                 const Bytes& preimage, CertScheme scheme,
                                 std::size_t quorum,
                                 const MembershipState& membership,
                                 std::uint64_t height, const char* site);

  /// Charge folding `shares` share signatures into one aggregate.
  void combine(std::size_t shares);
  /// Fold `cert`'s shares into the aggregate form, tagged with the latest
  /// generation of `membership` that contains every signer; charges the
  /// combine.
  void fold(CertSignatures& cert, const MembershipState& membership);

  /// `b`'s digest, charged and counted as a hash at "block".
  [[nodiscard]] BlockHash hash_block(const Block& b);
  /// SHA-256 of `bytes`, charged and counted as a hash at `site`.
  [[nodiscard]] Bytes hash(BytesView bytes, const char* site);

  /// Certificate rules and the verification caches.
  [[nodiscard]] CertRules& certs() { return certs_; }
  [[nodiscard]] const CertRules& certs() const { return certs_; }

 private:
  /// Charge `mj` of `cat` to the meter and count one `op` at `site`; a
  /// fold (no `op`) is charged but not counted.
  void charge(energy::Category cat, double mj, const char* op = nullptr,
              const char* site = nullptr);
  /// The unmetered check of `sig`, through the memo when there is one.
  /// `fp` is crypto::fingerprint(author, preimage, sig) (unread without
  /// a memo). Without `record`, the memo only answers from a stored
  /// verdict and a miss verifies without storing one.
  [[nodiscard]] bool check(std::uint64_t fp, NodeId author,
                           BytesView preimage, BytesView sig, bool share,
                           bool record);

  NodeId id_;
  const char* component_;
  std::shared_ptr<crypto::Keyring> keyring_;
  std::shared_ptr<crypto::AggKeyring> agg_;
  energy::Meter* meter_;
  prof::Profiler* profiler_;
  crypto::VerifyMemo* memo_;
  /// Signatures enter the signature cache only under the individual
  /// scheme (an aggregate certificate never reads it). Entries are
  /// multi-use (a commitQC and a status message may both carry the same
  /// vote) and GC'd at the low-water mark.
  CertRules certs_;
  /// Reused by verify_msg for the signing preimage; the view it hands on
  /// does not outlive the call.
  Writer preimage_writer_;
};

}  // namespace eesmr::smr
