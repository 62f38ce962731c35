// Simulated trusted-component tier: a per-node monotonic counter bound to
// signed attestations (the UNIQUE / USIG primitive MinBFT-style n=2f+1
// protocols build on).
//
// The security argument, and how this simulation preserves it:
//  * `TrustedCounter::attest` is the ONLY way to produce an Attestation,
//    and it unconditionally increments the counter before signing —
//    assigning the same counter value to two different messages is
//    structurally impossible through the API (there is no "sign at value
//    v" entry point and the counter is private).
//  * Counter state survives crashes via seal()/unseal(): unseal never
//    lowers the counter, so a crash/recover cycle cannot mint a second
//    attestation for an already-used value (rollback resistance).
//  * Receivers run an AttestationTracker per sender enforcing *strict
//    contiguity*: the only acceptable next counter from node p is
//    last(p)+1. A Byzantine node with a forged/second counter can then
//    still not equivocate usefully — two attestations for the same value
//    are flagged as reuse, and skipping values parks the message in a
//    hold-back queue until the gap is filled, so all correct receivers
//    accept the same totally-ordered sequence of attested messages.
//
// Every attestation / verification is charged to energy::Category::kAttest
// through the node's Meter (cost model: one in-enclave signature plus the
// enclave-call overhead, src/energy/cost_model.hpp) and counted in the
// profiler under component "trusted" — the eesmr_prof_* crypto split shows
// attest ops separately from ordinary sign/verify.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"
#include "src/crypto/signer.hpp"
#include "src/energy/cost_model.hpp"
#include "src/energy/meter.hpp"
#include "src/obs/prof.hpp"

namespace eesmr::trusted {

/// A unique-identifier certificate: "node's trusted component assigned
/// monotonic counter value `counter` to message digest `digest`".
struct Attestation {
  NodeId node = kNoNode;
  std::uint64_t counter = 0;  ///< value AFTER the increment; first is 1
  Bytes digest;               ///< message digest the value is bound to
  Bytes sig;                  ///< enclave signature over preimage()

  /// Bytes the attestation signature covers (domain-separated from
  /// ordinary Msg signatures by the "UI" tag).
  [[nodiscard]] Bytes preimage() const;
  [[nodiscard]] Bytes encode() const;
  static Attestation decode(BytesView bytes);
};

/// Sealed (crash-surviving) counter state. In a real TEE this lives in
/// monotonic NV storage; here it is the harness's crash/recover carrier.
struct SealedCounter {
  NodeId node = kNoNode;
  std::uint64_t counter = 0;
};

/// Per-node simulated enclave: a monotonic counter plus the node's
/// attestation key (modeled on the node's directory key, domain-separated
/// by the Attestation preimage tag).
class TrustedCounter {
 public:
  /// `meter`/`profiler` may be null (no energy accounting / profiling).
  TrustedCounter(std::shared_ptr<const crypto::Keyring> keyring, NodeId node,
                 energy::Meter* meter = nullptr,
                 prof::Profiler* profiler = nullptr);

  /// Bind the next counter value to `digest`: increments, signs, charges
  /// one kAttest. There is deliberately no way to re-attest an old value.
  [[nodiscard]] Attestation attest(BytesView digest);

  /// Last assigned counter value (0 = none yet).
  [[nodiscard]] std::uint64_t value() const { return counter_; }

  /// Crash/recover persistence: seal the current value; unseal adopts the
  /// sealed value but NEVER lowers the live counter (rollback resistance —
  /// replaying an old sealed blob cannot free used values for reuse).
  [[nodiscard]] SealedCounter seal() const;
  void unseal(const SealedCounter& sealed);

 private:
  std::shared_ptr<const crypto::Keyring> keyring_;
  NodeId node_;
  energy::Meter* meter_;
  prof::Profiler* prof_;
  std::uint64_t counter_ = 0;
};

/// Verify one attestation against the key directory, charging one kAttest
/// verification to `meter` (null ok) and profiling under `site`.
[[nodiscard]] bool verify_attestation(const crypto::Keyring& keyring,
                                      const Attestation& att,
                                      energy::Meter* meter = nullptr,
                                      prof::Profiler* profiler = nullptr,
                                      const char* site = "attest");

/// Receiver-side contiguity enforcement for one peer set. For each sender
/// the only acceptable next counter is last+1; everything else is either
/// a future value (hold back until the gap fills) or a replay/reuse.
class AttestationTracker {
 public:
  enum class Verdict : std::uint8_t {
    kAccept,  ///< counter == last+1: advance and process
    kHold,    ///< counter > last+1: buffer until the gap is filled
    kReplay,  ///< counter <= last, digest matches what was accepted: dupe
    kReuse,   ///< counter <= last, digest DIFFERS: counter-reuse attack
  };

  /// Classify (and, on kAccept, advance past) one attestation.
  Verdict observe(const Attestation& att);

  /// Deep-lag escape hatch: when a counter arrives more than `gap` ahead
  /// of last+1, adopt it as the new baseline instead of holding forever
  /// (the skipped values become permanently unacceptable from that
  /// sender; the skipped *messages* are recovered via chain sync / state
  /// transfer, which carry their own certificates). 0 = never jump.
  void set_max_gap(std::uint64_t gap) { max_gap_ = gap; }

  /// Membership-generation rebase: accept `node`'s NEXT attestation as
  /// the new contiguity baseline regardless of gap. A (re)joining
  /// signer's counter kept advancing while it was outside the active
  /// set, so holding for the missed values would wedge it forever; the
  /// skipped values stay permanently unacceptable (no digest memory →
  /// late arrivals classify as replays), so no value is accepted twice.
  void rebase(NodeId node);

  /// Abandon waiting for values below `counter` from `node`: adopt
  /// counter-1 as the new frontier so `counter` itself becomes the next
  /// acceptable value. For use when the receiver has established (e.g.
  /// by waiting out the delay bound) that the gap values were dropped,
  /// not delayed. The skipped values become permanently unacceptable —
  /// no digest memory exists for them, so a late arrival classifies as
  /// a replay and no value is ever accepted twice.
  void skip_to(NodeId node, std::uint64_t counter);

  /// Last accepted counter value for `node` (0 = none).
  [[nodiscard]] std::uint64_t last(NodeId node) const;
  /// Gaps abandoned via skip_to (receiver-policy recoveries).
  [[nodiscard]] std::uint64_t gap_skips() const { return gap_skips_; }
  /// Duplicate deliveries of already-accepted values.
  [[nodiscard]] std::uint64_t replays() const { return replays_; }
  /// Counter-reuse attempts caught (same value, different digest).
  [[nodiscard]] std::uint64_t reuse_detected() const { return reuse_; }

  /// Drop per-value digest memory older than `keep` values behind each
  /// sender's frontier (checkpoint GC hook; contiguity state itself is
  /// O(1) per sender).
  void forget_window(std::uint64_t keep);

 private:
  struct PerSender {
    std::uint64_t last = 0;
    /// Armed by rebase(): the next higher-than-frontier arrival is
    /// adopted as the new baseline instead of being held.
    bool rebase_pending = false;
    /// Digests of accepted values still in the dedup window, for telling
    /// replays from reuse. Pruned by forget_below.
    std::map<std::uint64_t, Bytes> digests;
  };
  std::map<NodeId, PerSender> senders_;
  std::uint64_t max_gap_ = 0;
  std::uint64_t replays_ = 0;
  std::uint64_t reuse_ = 0;
  std::uint64_t gap_skips_ = 0;
};

}  // namespace eesmr::trusted
