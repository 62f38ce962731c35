// Certificate rules and the verified-certificate caches: the pure half of
// a replica's certificate check. Given a certificate, its quorum and the
// membership state, the rules say whether it is well-formed; the caches
// say which signatures and aggregates this node already verified, so the
// replica skips their metered re-verification.
//
// Pure logic — no I/O, no crypto, no meter; the replica computes
// fingerprints, charges, verifies and traces (src/smr/replica.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/crypto/sha256.hpp"
#include "src/smr/membership.hpp"
#include "src/smr/message.hpp"

namespace eesmr::smr {

class CertRules {
 public:
  /// Signers must be replicas: ids below `replicas` (n).
  explicit CertRules(std::size_t replicas) : n_(replicas) {}

  /// Individual form: at least `quorum` pairs, every author a replica
  /// (the keyring also holds client keys), and no author twice.
  [[nodiscard]] bool individual_ok(const CertSignatures& cert,
                                   std::size_t quorum) const;
  /// Aggregate form: a bitset no wider than n with at least `quorum`
  /// signers, tagged with a generation `membership` still knows, whose
  /// signer set holds every signer.
  [[nodiscard]] bool aggregate_ok(const CertSignatures& cert,
                                  std::size_t quorum,
                                  const MembershipState& membership) const;

  // -- verified-signature cache ----------------------------------------------
  /// One signature of an individual-form certificate: its
  /// crypto::fingerprint(author, preimage, signature), and whether the
  /// cache answered it.
  struct Lookup {
    std::uint64_t fp;
    bool cached;
  };
  /// Look every signature of individual-form `cert` over `preimage` up,
  /// in order, counting each hit. A hit is matched by fingerprint only,
  /// so it settles the accounting, not validity: the replica still
  /// confirms the exact signature, and a collision can at worst skip one
  /// modeled charge. The result is valid until the next lookup.
  const std::vector<Lookup>& lookup(const CertSignatures& cert,
                                    BytesView preimage);
  /// Remember a certificate-bound signature this node verified on its
  /// own (a vote-class message or a checkpoint attestation), by its
  /// crypto::fingerprint(author, preimage, signature), at committed
  /// height `height`.
  void remember_sig(std::uint64_t fp, std::uint64_t height) {
    sigs_.emplace(fp, height);
  }

  // -- verified-aggregate cache ----------------------------------------------
  /// Whole-certificate key of an aggregate over `preimage`: SHA-256 of
  /// the preimage, signer bitset and aggregate signature. A hit accepts
  /// the certificate without re-checking it (that would cost the
  /// n-signer verify it saves), so the key is a cryptographic digest.
  [[nodiscard]] static crypto::Sha256Digest agg_key(
      BytesView preimage, const CertSignatures& cert);
  /// Whether the aggregate keyed `key` is remembered; counts a hit.
  [[nodiscard]] bool agg_cached(const crypto::Sha256Digest& key);
  void remember_agg(const crypto::Sha256Digest& key, std::uint64_t height) {
    aggs_.emplace(key, height);
  }

  /// Drop every entry remembered at or below `height` (the previous
  /// low-water mark): signatures and aggregates that certificates no
  /// longer re-carry, a full checkpoint interval later.
  void gc(std::uint64_t height);

  /// Metered re-verifications the caches skipped.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  std::size_t n_;
  /// Fingerprint -> committed height when remembered.
  std::unordered_map<std::uint64_t, std::uint64_t> sigs_;
  /// agg_key -> committed height when remembered.
  std::map<crypto::Sha256Digest, std::uint64_t> aggs_;
  std::uint64_t hits_ = 0;
  std::vector<Lookup> lookup_;  ///< lookup()'s result, reused across calls
};

}  // namespace eesmr::smr
