// Sync HotStuff (Abraham, Malkhi, Nayak, Ren, Yin — S&P 2020): the
// state-of-the-art synchronous SMR protocol the paper compares against,
// reimplemented for the energy evaluation.
//
// Steady state: the leader's proposal carries a quorum certificate
// (f+1 signatures) for its parent; EVERY node signs and broadcasts a
// vote for every block; a block commits 2Δ after voting absent
// equivocation. This is the per-block certificate + explicit-vote cost
// that EESMR eliminates.
//
// Configured with `optimistic_fast_path`, this replica implements
// OptSync (Shrestha, Abraham, Ren, Nayak — CCS 2020): a responsive
// commit once ⌊3n/4⌋+1 votes arrive, at the price of verifying the
// larger optimistic quorum.
//
// The paper's measurement note ("we made simplifying assumptions in
// favor of Sync HotStuff, by partially implementing vote forwarding")
// corresponds to votes riding the same flood router as proposals.
#pragma once

#include <map>
#include <optional>

#include "src/smr/blame_view_change.hpp"

namespace eesmr::baselines {

struct SyncHsOptions {
  /// OptSync mode: commit responsively on ⌊3n/4⌋+1 votes.
  bool optimistic_fast_path = false;
  /// Rotating-leader mode (Abraham-Nayak-Shrestha style, Table 3's
  /// "Rotating BFT SMR" row): the proposer of height h is node
  /// (h-1) mod n instead of a per-view leader. Equivocation detection
  /// and certificates work unchanged; the demotion path on a stalled
  /// proposer reuses the view-change machinery.
  bool rotating_leader = false;
};

class SyncHsReplica final : public smr::BlameViewChangeReplica {
 public:
  SyncHsReplica(net::Network& net, smr::ReplicaConfig cfg, SyncHsOptions opts,
                smr::ByzantineConfig byz, energy::Meter* meter);

  void start() override;

  [[nodiscard]] std::size_t optimistic_quorum() const {
    return 3 * cfg_.n / 4 + 1;
  }
  /// Proposer of a given height (rotating mode) or the view leader.
  [[nodiscard]] NodeId proposer_for(std::uint64_t height) const {
    if (opts_.rotating_leader) {
      return static_cast<NodeId>((height - 1 + v_cur_ - 1) % cfg_.n);
    }
    return leader_of(v_cur_);
  }

 protected:
  void handle(NodeId from, const smr::Msg& msg) override;
  void on_low_water(const smr::Block& root) override;
  void on_state_transfer(const smr::Block& root) override;
  void quit_view() override;
  void begin_view() override;
  void reset_view_state() override;

 private:
  void propose(std::uint64_t height);
  void handle_propose(NodeId from, const smr::Msg& msg);
  void vote_for(const smr::Block& block, const smr::BlockHash& h);
  void handle_vote(const smr::Msg& msg);
  void certify(const smr::BlockHash& h);

  void handle_status(const smr::Msg& msg);
  void leader_propose_new_view();

  [[nodiscard]] bool cert_valid(const smr::QuorumCert& qc);

  SyncHsOptions opts_;

  /// Highest certified block (the lock in Sync HotStuff).
  smr::BlockHash certified_tip_;
  std::uint64_t certified_height_ = 0;
  std::optional<smr::QuorumCert> tip_cert_;

  /// Votes per (view, block hash).
  smr::QuorumTally<smr::VoteKey> votes_{cfg_.n};
  /// First vote per height in the current view (cleared on view entry):
  /// an equivocating leader must not extract two votes — and two armed
  /// 2Δ commits — for conflicting same-height siblings from one node.
  std::map<std::uint64_t, smr::BlockHash> voted_height_;
};

}  // namespace eesmr::baselines
