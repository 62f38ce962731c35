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
#include <set>
#include <vector>

#include "src/smr/replica.hpp"

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

class SyncHsReplica final : public smr::ReplicaBase {
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
  void on_restart() override;

 private:
  enum class Phase { kSteady, kQuitDelay, kNewView };

  void propose(std::uint64_t height);
  void handle_propose(NodeId from, const smr::Msg& msg);
  void vote_for(const smr::Block& block, const smr::BlockHash& h);
  void handle_vote(const smr::Msg& msg);
  void certify(const smr::BlockHash& h);
  void commit_timeout(const smr::BlockHash& h);

  void send_blame();
  void handle_blame(const smr::Msg& msg);
  void handle_blame_qc(const smr::Msg& msg);
  void on_blame_quorum();
  void quit_view();
  void handle_status(const smr::Msg& msg);
  void enter_new_view();
  void leader_propose_new_view();

  void reset_blame_timer(sim::Duration d);
  void cancel_commit_timers();
  [[nodiscard]] bool cert_valid(const smr::QuorumCert& qc);

  SyncHsOptions opts_;
  smr::ByzantineConfig byz_;
  Phase phase_ = Phase::kSteady;
  bool started_ = false;
  bool crashed_ = false;
  bool commits_disabled_ = false;

  /// Highest certified block (the lock in Sync HotStuff).
  smr::BlockHash certified_tip_;
  std::uint64_t certified_height_ = 0;
  std::optional<smr::QuorumCert> tip_cert_;

  /// First proposal hash per height (equivocation detection).
  std::map<std::uint64_t, std::pair<smr::BlockHash, smr::Msg>> seen_;
  /// Votes per block hash.
  smr::BlockHashMap<std::vector<smr::Msg>> votes_;
  smr::BlockHashSet voted_;  ///< block hashes we voted for
  /// First vote per height in the current view (cleared on view entry):
  /// an equivocating leader must not extract two votes — and two armed
  /// 2Δ commits — for conflicting same-height siblings from one node.
  std::map<std::uint64_t, smr::BlockHash> voted_height_;

  sim::Timer blame_timer_;
  smr::BlockHashMap<sim::EventId> commit_timers_;

  std::vector<smr::Msg> blame_msgs_;
  std::set<NodeId> blamers_;
  bool blamed_ = false;

  std::map<NodeId, smr::QuorumCert> status_;
  bool nv_proposed_ = false;
};

}  // namespace eesmr::baselines
