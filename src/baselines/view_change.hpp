// The timeout-driven view change PBFT and MinBFT share, with the chained
// proposal skeleton and commit path around it. A progress timeout (10Δ
// after the last commit) broadcasts kViewChange for the next view with
// the protocol's report; f+1 of them for a higher view make a replica
// join, and a quorum lets the new primary announce kNewView with a
// payload chosen from the reports and re-propose. Subclasses supply the
// proposal authentication, the vote phases and the view-change payloads.
#pragma once

#include <map>
#include <vector>

#include "src/smr/replica.hpp"

namespace eesmr::baselines {

class ViewChangeReplica : public smr::ReplicaBase {
 public:
  /// `propose_kind` and `timer_kind` tag the pipelined proposals and the
  /// progress timer (eesmr_prof_sched_events_total kind labels).
  ViewChangeReplica(net::Network& net, smr::ReplicaConfig cfg,
                    smr::ByzantineConfig byz, energy::Meter* meter,
                    const char* propose_kind, const char* timer_kind);

  void start() override;

 protected:
  enum class Phase { kSteady, kViewChange };

  void handle(NodeId from, const smr::Msg& msg) override;
  void on_commit(const smr::Block& block) override;
  void on_chain_connected(const smr::Block& block) override;
  void on_low_water(const smr::Block& root) override;
  void on_state_transfer(const smr::Block& root) override;
  void on_restart() override;

  // -- protocol hooks ---------------------------------------------------------
  /// Authenticate and broadcast a built proposal, then handle it as
  /// received.
  virtual void send_proposal(const smr::Block& b) = 0;
  /// Every message type other than kViewChange and kNewView.
  virtual void handle_steady(NodeId from, const smr::Msg& msg) = 0;
  /// The kViewChange payload this replica reports to the next primary.
  virtual Bytes view_change_report() = 0;
  /// As the new primary: the kNewView payload chosen from the quorum's
  /// kViewChange messages (in ascending author order).
  virtual Bytes choose_new_view(const std::vector<smr::Msg>& reports) = 0;
  /// Adopt a kNewView payload: this primary's own choice (`own`) or one
  /// received from `from`. False rejects the new view.
  virtual bool adopt_new_view(BytesView payload, NodeId from, bool own) = 0;
  /// Drop vote state for blocks at or below the low-water `height`.
  virtual void prune_tallies(std::uint64_t height) = 0;
  /// Drop all vote state (state transfer re-roots the chain).
  virtual void reset_tallies() = 0;

  // -- shared steps -----------------------------------------------------------
  /// Build and send the next block on the proposal branch (primary only).
  void propose();
  /// First checks on a current-view proposal `b` (hash `h`): a second
  /// proposal for its height demotes the primary, and missing ancestry
  /// waits for chain sync. True when `b` extends the committed branch.
  bool admit_proposal(NodeId from, const smr::Msg& msg, const smr::Block& b,
                      const smr::BlockHash& h);
  /// Commit `h` once it connects to the committed branch (quorum reached).
  virtual void try_commit(const smr::BlockHash& h);
  /// Raise the proposal branch to `b` (hash `h`) if it is higher; true
  /// when it did.
  bool raise_branch(const smr::BlockHash& h, const smr::Block& b);
  Phase phase_ = Phase::kSteady;
  bool started_ = false;
  bool crashed_ = false;
  /// Blocks this replica sent its kCommit for.
  smr::BlockHashSet commit_sent_;
  /// Highest block a vote phase recorded: proposals extend it.
  smr::BlockHash branch_tip_;
  std::uint64_t branch_height_ = 0;

 private:
  void reset_progress_timer(sim::Duration d);
  void on_progress_timeout();
  void send_view_change(std::uint64_t target);
  void handle_view_change(const smr::Msg& msg);
  void maybe_announce_new_view(std::uint64_t target);
  void handle_new_view(NodeId from, const smr::Msg& msg);
  void enter_view(std::uint64_t view);

  smr::ByzantineConfig byz_;
  const char* propose_kind_;
  const char* timer_kind_;
  /// First proposal hash per height in the current view (equivocation
  /// detection).
  std::map<std::uint64_t, smr::BlockHash> seen_;
  /// Commit quorums reached before the block connected (drained by
  /// on_chain_connected).
  smr::BlockHashSet pending_commit_;

  sim::Timer progress_timer_;
  std::uint64_t vc_target_ = 0;  ///< view we are currently changing into
  /// kViewChange messages per target view.
  smr::QuorumTally<std::uint64_t> vc_msgs_{cfg_.n};
};

}  // namespace eesmr::baselines
