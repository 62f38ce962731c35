// MinBFT (Veronese, Correia, Bessani, Lung, Verissimo — IEEE TC 2013):
// BFT SMR with n=2f+1 replicas using a trusted monotonic counter
// (src/trusted) — the "half the replicas at the same f" design point the
// energy matrix prices against EESMR and PBFT.
//
// Agreement messages carry a TrustedCounter attestation (USIG-style UI)
// instead of an ordinary protocol signature:
//  * the primary's kPropose (MinBFT's PREPARE) binds the proposed block's
//    hash to its next counter value;
//  * every backup's kCommit binds the same block hash to ITS next value.
// Receivers verify the attestation and enforce strict per-sender counter
// contiguity (AttestationTracker): the only acceptable next message from
// a sender is last+1, so even a Byzantine primary cannot make two correct
// replicas accept different blocks for the same slot — both proposals
// carry distinct counter values, every receiver processes them in the
// same (counter) order, and the content check rejects the second.
// A block commits on f+1 attested acceptances (the primary's prepare
// counting as its commit).
//
// View change (ViewChangeReplica): a signed (not attested) kViewChange for
// v+1 carries the sender's latest accepted block; f+1 of them let the new
// primary announce kNewView and re-propose from the highest reported
// block. Checkpoints, state transfer, chain sync and the client path are
// the shared ReplicaBase machinery, unchanged (checkpoint quorum f+1).
#pragma once

#include <map>

#include "src/baselines/view_change.hpp"
#include "src/trusted/trusted.hpp"

namespace eesmr::baselines {

class MinBftReplica final : public ViewChangeReplica {
 public:
  MinBftReplica(net::Network& net, smr::ReplicaConfig cfg,
                smr::ByzantineConfig byz, energy::Meter* meter);

  /// Trusted-component observability.
  [[nodiscard]] const trusted::TrustedCounter& counter() const {
    return counter_;
  }
  [[nodiscard]] const trusted::AttestationTracker& tracker() const {
    return tracker_;
  }

 protected:
  void on_restart() override;
  /// Rebase attested-counter tracking at the generation boundary: a
  /// (re)joining signer's counter kept advancing while it was outside
  /// the active set, so its next attestation is adopted as the new
  /// contiguity baseline instead of holding forever on missed values.
  void on_membership_change(const smr::MembershipPolicy& policy) override;
  /// Attested messages authenticate via their UI, not the outer Msg
  /// signature (MinBFT replaces the signature with the counter UI).
  [[nodiscard]] bool requires_signature_check(
      const smr::Msg& msg) const override;

  void send_proposal(const smr::Block& b) override;
  void handle_steady(NodeId from, const smr::Msg& msg) override;
  void try_commit(const smr::BlockHash& h) override;
  Bytes view_change_report() override;
  Bytes choose_new_view(const std::vector<smr::Msg>& reports) override;
  bool adopt_new_view(BytesView payload, NodeId from, bool own) override;
  void prune_tallies(std::uint64_t height) override;
  void reset_tallies() override;

 private:
  void handle_propose(NodeId from, const smr::Msg& msg);
  void handle_commit_msg(const smr::Msg& msg);
  /// Verify an attested message (`what` names the crypto category) and
  /// contiguity-gate it; true = process now. kHold parks it in the
  /// per-sender queue, replay/reuse drops it.
  bool admit_attested(const smr::Msg& msg, const trusted::Attestation& att,
                      const char* what);
  void drain_holdback();
  /// Hold-back gaps that outlive the delay bound were dropped (attested
  /// messages are never retransmitted): rebaseline past them.
  void arm_gap_timer();
  void on_gap_timeout();
  void accept_proposal(NodeId from, const smr::Msg& msg, const smr::Block& b,
                       const trusted::Attestation& att);
  void tally_commit(NodeId author, const smr::BlockHash& h);

  trusted::TrustedCounter counter_;
  trusted::AttestationTracker tracker_;
  /// Held-back attested messages per sender, ordered by counter value.
  std::map<NodeId, std::map<std::uint64_t, smr::Msg>> holdback_;
  std::size_t holdback_total_ = 0;
  bool draining_holdback_ = false;

  /// Attested acceptances per block hash, across views (the primary's
  /// prepare counts as its commit).
  smr::QuorumTally<smr::BlockHash, smr::BlockHashLess> commit_authors_{cfg_.n};

  sim::Timer gap_timer_;
  bool gap_pending_ = false;
};

}  // namespace eesmr::baselines
