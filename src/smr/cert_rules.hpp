// Certificate rules and the verified-certificate caches: the pure half of
// a replica's certificate check. Given a certificate, its quorum and the
// membership state, the rules say whether it is well-formed; the caches
// say which signatures and aggregates this node already verified, so the
// replica skips their metered re-verification.
//
// Pure logic — no I/O, no crypto, no meter; the node's metered crypto
// computes fingerprints, charges and verifies (src/smr/node_crypto.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/crypto/sha256.hpp"
#include "src/smr/membership.hpp"
#include "src/smr/message.hpp"

namespace eesmr::smr {

/// Fingerprint -> height table: open addressing over a power-of-two
/// number of slots, linear probing, doubled before it passes half load.
/// Every 64-bit key works, 0 included.
class FingerprintHeights {
 public:
  /// Insert `fp` at `height` (below UINT64_MAX); a key already present
  /// keeps its height.
  void emplace(std::uint64_t fp, std::uint64_t height);
  /// The height `fp` was inserted at, if present.
  [[nodiscard]] std::optional<std::uint64_t> find(std::uint64_t fp) const;
  [[nodiscard]] bool contains(std::uint64_t fp) const {
    return find(fp).has_value();
  }
  /// Drop every entry at or below `height`, rebuilding the table.
  void drop_at_or_below(std::uint64_t height);

 private:
  struct Slot {
    std::uint64_t fp = 0;
    std::uint64_t height_plus_one = 0;  ///< 0: the slot is empty
  };
  /// The first slot of `fp`'s probe sequence.
  [[nodiscard]] std::size_t home(std::uint64_t fp) const;
  /// Rebuild over `slots` slots: a power of two, at most half loaded by
  /// the entries in slots_.
  void rehash(std::size_t slots);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;  ///< 64 - log2(slots_.size())
};

class CertRules {
 public:
  /// Signers must be replicas: ids below `replicas` (n).
  explicit CertRules(std::size_t replicas) : n_(replicas) {}
  [[nodiscard]] std::size_t replicas() const { return n_; }

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
  /// so it settles the accounting, not validity: the node still
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
  /// The height at which signature fingerprint `fp` was first
  /// remembered, if the cache holds it.
  [[nodiscard]] std::optional<std::uint64_t> sig_height(
      std::uint64_t fp) const {
    return sigs_.find(fp);
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
  /// Fingerprint -> committed height when first remembered.
  FingerprintHeights sigs_;
  /// agg_key -> committed height when remembered.
  std::map<crypto::Sha256Digest, std::uint64_t> aggs_;
  std::uint64_t hits_ = 0;
  std::vector<Lookup> lookup_;  ///< lookup()'s result, reused across calls
};

}  // namespace eesmr::smr
