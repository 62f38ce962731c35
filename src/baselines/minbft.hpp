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
// View change is timeout-driven: a signed (not attested) kViewChange for v+1
// carries the sender's latest accepted block; f+1 of them let the new
// primary announce kNewView and re-propose from the highest reported
// block. Checkpoints, state transfer, chain sync and the client path are
// the shared ReplicaBase machinery, unchanged (checkpoint quorum f+1).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/smr/replica.hpp"
#include "src/trusted/trusted.hpp"

namespace eesmr::baselines {

class MinBftReplica final : public smr::ReplicaBase {
 public:
  MinBftReplica(net::Network& net, smr::ReplicaConfig cfg,
                smr::ByzantineConfig byz, energy::Meter* meter);

  void start() override;
  /// Trusted-component observability.
  [[nodiscard]] const trusted::TrustedCounter& counter() const {
    return counter_;
  }
  [[nodiscard]] const trusted::AttestationTracker& tracker() const {
    return tracker_;
  }

 protected:
  void handle(NodeId from, const smr::Msg& msg) override;
  void on_commit(const smr::Block& block) override;
  void on_chain_connected(const smr::Block& block) override;
  void on_low_water(const smr::Block& root) override;
  void on_state_transfer(const smr::Block& root) override;
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

 private:
  enum class Phase { kSteady, kViewChange };

  void propose();
  void handle_propose(NodeId from, const smr::Msg& msg);
  void handle_commit_msg(NodeId from, const smr::Msg& msg);
  /// Contiguity-gate an attested message; true = process now. kHold
  /// parks it in the per-sender queue, replay/reuse drops it.
  bool admit_attested(NodeId from, const smr::Msg& msg,
                      const trusted::Attestation& att);
  void drain_holdback(NodeId from);
  /// Hold-back gaps that outlive the delay bound were dropped (attested
  /// messages are never retransmitted): rebaseline past them.
  void arm_gap_timer();
  void on_gap_timeout();
  void accept_proposal(NodeId from, const smr::Msg& msg, const smr::Block& b,
                       const trusted::Attestation& att);
  void tally_commit(NodeId author, const smr::BlockHash& h);
  void try_commit(const smr::BlockHash& h);

  void on_progress_timeout();
  void send_view_change(std::uint64_t target);
  void handle_view_change(const smr::Msg& msg);
  void handle_new_view(NodeId from, const smr::Msg& msg);
  void maybe_announce_new_view(std::uint64_t target);
  void enter_view(std::uint64_t view);

  void reset_progress_timer(sim::Duration d);

  smr::ByzantineConfig byz_;
  Phase phase_ = Phase::kSteady;
  bool started_ = false;
  bool crashed_ = false;

  trusted::TrustedCounter counter_;
  trusted::AttestationTracker tracker_;
  /// Held-back attested messages per sender, ordered by counter value.
  std::map<NodeId, std::map<std::uint64_t, smr::Msg>> holdback_;
  std::size_t holdback_total_ = 0;
  bool draining_holdback_ = false;

  /// First accepted proposal hash per height in the current view.
  std::map<std::uint64_t, smr::BlockHash> seen_;
  /// Attested acceptances per block hash (distinct authors; the
  /// primary's prepare counts as its commit).
  smr::BlockHashMap<std::set<NodeId>> commit_authors_;
  smr::BlockHashSet commit_sent_;
  smr::BlockHashSet pending_commit_;

  /// Latest accepted primary block (what view changes report).
  smr::BlockHash accepted_tip_;
  std::uint64_t accepted_height_ = 0;

  sim::Timer progress_timer_;
  sim::Timer gap_timer_;
  bool gap_pending_ = false;
  std::uint64_t vc_target_ = 0;
  std::map<std::uint64_t, std::map<NodeId, smr::Msg>> vc_msgs_;
  std::set<std::uint64_t> nv_sent_;
};

}  // namespace eesmr::baselines
