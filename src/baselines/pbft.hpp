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
// View change (ViewChangeReplica): kViewChange for v+1 carries the
// sender's highest prepared certificate (+ block); the new primary
// collects 2f+1, picks the highest valid prepared branch, and announces
// it in kNewView, from which it re-proposes.
//
// The vote quorum 2f+1 comes from ReplicaConfig::quorum (defaulted here
// when unset); checkpoint certificates stay at f+1 like every protocol.
#pragma once

#include <optional>
#include <vector>

#include "src/baselines/view_change.hpp"

namespace eesmr::baselines {

class PbftReplica final : public ViewChangeReplica {
 public:
  PbftReplica(net::Network& net, smr::ReplicaConfig cfg,
              smr::ByzantineConfig byz, energy::Meter* meter);

 protected:
  void on_chain_connected(const smr::Block& block) override;

  void send_proposal(const smr::Block& b) override;
  void handle_steady(NodeId from, const smr::Msg& msg) override;
  Bytes view_change_report() override;
  Bytes choose_new_view(const std::vector<smr::Msg>& reports) override;
  bool adopt_new_view(BytesView payload, NodeId from, bool own) override;
  void prune_tallies(std::uint64_t height) override;
  void reset_tallies() override;

 private:
  void handle_propose(NodeId from, const smr::Msg& msg);
  void handle_prepare(const smr::Msg& msg);
  void handle_commit(const smr::Msg& msg);
  void on_prepared(const smr::BlockHash& h, const smr::Block& b);

  /// kPrepare and kCommit messages per (view, block hash).
  smr::QuorumTally<smr::VoteKey> prepares_{cfg_.n};
  smr::QuorumTally<smr::VoteKey> commits_{cfg_.n};
  /// The 2f+1-prepare certificate of the proposal branch's tip (what
  /// view changes carry forward).
  std::optional<smr::QuorumCert> prepared_cert_;
};

}  // namespace eesmr::baselines
