// Classic PBFT (Castro & Liskov, OSDI'99) on the shared smr API, as a
// partially-synchronous n=3f+1 comparison point for the energy matrix.
//
// Chained variant: the pre-prepare (kPropose) carries a Block extending
// the leader's tip, so the existing chain plumbing (store, sync,
// checkpoints, client path) is reused unchanged. A block is *prepared*
// once 2f+1 distinct replicas (leader included) broadcast kPrepare for
// its hash, and *committed-locally* once 2f+1 broadcast kCommit —
// commit_chain then commits it and any uncommitted ancestors (safe by
// quorum intersection: two conflicting blocks cannot both gather 2f+1
// prepares in one view, and the view change carries the highest prepared
// certificate forward).
//
// View change: a progress timeout triggers kViewChange for v+1 carrying
// the sender's highest prepared certificate (+ block); the new primary
// collects 2f+1, picks the highest valid prepared branch, and announces
// it in kNewView, from which it re-proposes. Replicas that observe f+1
// view-change messages for a higher view join it (PBFT's liveness rule).
//
// The vote quorum 2f+1 comes from ReplicaConfig::quorum (defaulted here
// when unset); checkpoint certificates stay at f+1 like every protocol.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/smr/replica.hpp"

namespace eesmr::baselines {

class PbftReplica final : public smr::ReplicaBase {
 public:
  PbftReplica(net::Network& net, smr::ReplicaConfig cfg,
              smr::ByzantineConfig byz, energy::Meter* meter);

  void start() override;

 protected:
  void handle(NodeId from, const smr::Msg& msg) override;
  void on_commit(const smr::Block& block) override;
  void on_chain_connected(const smr::Block& block) override;
  void on_low_water(const smr::Block& root) override;
  void on_state_transfer(const smr::Block& root) override;
  void on_restart() override;

 private:
  enum class Phase { kSteady, kViewChange };

  void propose();
  void handle_propose(NodeId from, const smr::Msg& msg);
  void handle_prepare(const smr::Msg& msg);
  void handle_commit(const smr::Msg& msg);
  void on_prepared(const smr::BlockHash& h, const smr::Block& b);
  void try_commit(const smr::BlockHash& h);

  void on_progress_timeout();
  void send_view_change(std::uint64_t target);
  void handle_view_change(const smr::Msg& msg);
  void handle_new_view(NodeId from, const smr::Msg& msg);
  void maybe_announce_new_view(std::uint64_t target);
  void enter_view(std::uint64_t view);

  void reset_progress_timer(sim::Duration d);
  /// The block new proposals extend: the highest prepared block on the
  /// committed branch, else the committed tip.
  [[nodiscard]] smr::BlockHash proposal_parent() const;

  smr::ByzantineConfig byz_;
  Phase phase_ = Phase::kSteady;
  bool started_ = false;
  bool crashed_ = false;

  /// First proposal hash per height in the current view (equivocation
  /// detection; two conflicting pre-prepares trigger a view change).
  std::map<std::uint64_t, smr::BlockHash> seen_;
  /// kPrepare messages per block hash (distinct authors).
  smr::BlockHashMap<std::vector<smr::Msg>> prepares_;
  smr::BlockHashSet prepare_sent_;  ///< hashes we broadcast kPrepare for
  /// kCommit messages per block hash (distinct authors).
  smr::BlockHashMap<std::vector<smr::Msg>> commits_;
  smr::BlockHashSet commit_sent_;
  /// Commit quorums reached before the block connected (drained by
  /// on_chain_connected).
  smr::BlockHashSet pending_commit_;

  /// Highest prepared block + its 2f+1-prepare certificate (what view
  /// changes carry forward).
  smr::BlockHash prepared_tip_;
  std::uint64_t prepared_height_ = 0;
  std::optional<smr::QuorumCert> prepared_cert_;

  sim::Timer progress_timer_;
  std::uint64_t vc_target_ = 0;  ///< view we are currently changing into
  /// kViewChange messages per target view per author.
  std::map<std::uint64_t, std::map<NodeId, smr::Msg>> vc_msgs_;
  std::set<std::uint64_t> nv_sent_;  ///< views we announced kNewView for
};

}  // namespace eesmr::baselines
