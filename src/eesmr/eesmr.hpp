// EESMR replica — the paper's primary contribution (Algorithm 2).
//
// Steady state ("voting in the head", §3.3): the leader signs ONE
// proposal per round; every node re-broadcasts it once (done by the
// flood router), updates its lock, and commits after a 4Δ
// equivocation-free wait. No per-block certificates.
//
// View change (§3.4): blame on timeout or equivocation; f+1 blames form
// a blame QC; nodes quit the view, certify their highest committed
// blocks (turning the implicit head-votes into explicit certificates),
// and a two-round bootstrap (rounds 1 and 2) starts the new view.
//
// Options cover the paper's §3.5/§5.6 variants: equivocation fast path,
// commands in bootstrap rounds, and the non-blocking (pipelined) mode.
#pragma once

#include <map>
#include <optional>

#include "src/smr/blame_view_change.hpp"

namespace eesmr::protocol {

struct EesmrOptions {
  /// §3.5/§5.6: on a transferable equivocation proof, quit the view
  /// immediately instead of waiting for a blame quorum certificate.
  bool equivocation_fast_path = true;
  /// §3.5: include client commands in the round-1 bootstrap block.
  bool cmds_in_bootstrap = false;
  /// Number of rounds the leader may run ahead of its highest accepted
  /// round. 1 = the blocking variant evaluated in §5.6.
  std::size_t pipeline = 1;
  /// §3.5 "Batching optimization": when > 0, steady-state proposals are
  /// optimistically pre-committed WITHOUT a signature check; only every
  /// checkpoint_interval-th round's proposal is verified. Hash chaining
  /// makes the checkpoint signature authenticate the whole window, so a
  /// correct leader costs 1 verification per interval instead of per
  /// block; a faulty leader degrades to the standard recovery path.
  std::size_t checkpoint_interval = 0;
};

class EesmrReplica final : public smr::BlameViewChangeReplica {
 public:
  EesmrReplica(net::Network& net, smr::ReplicaConfig cfg, EesmrOptions opts,
               smr::ByzantineConfig byz, energy::Meter* meter);

  void start() override;

  // -- observability ---------------------------------------------------------
  [[nodiscard]] std::uint64_t equivocations_detected() const {
    return equivocations_detected_;
  }

 protected:
  void handle(NodeId from, const smr::Msg& msg) override;
  void on_low_water(const smr::Block& root) override;
  void on_state_transfer(const smr::Block& root) override;
  [[nodiscard]] bool requires_signature_check(
      const smr::Msg& msg) const override;
  void quit_view() override;
  void begin_view() override;
  void reset_view_state() override;
  void after_commit_timeout() override;
  void on_blame_timer() override;
  [[nodiscard]] obs::Tracer::Args blame_trace_args() const override;

 private:
  // -- steady state ------------------------------------------------------------
  void enter_steady_round(std::uint64_t round);
  void propose_block(std::uint64_t round);
  void handle_propose(NodeId from, const smr::Msg& msg);
  /// `b` and `h` are msg's decoded block and its charged digest.
  void try_accept(const smr::Msg& msg, const smr::Block& b,
                  const smr::BlockHash& h, NodeId origin);
  void accept_proposal(const smr::Block& block, const smr::BlockHash& h);

  // -- equivocation ----------------------------------------------------------------
  void handle_equiv_proof(const smr::Msg& msg);
  void record_proposal_hash(std::uint64_t round, const smr::BlockHash& h,
                            const smr::Msg& msg);

  // -- view change ---------------------------------------------------------------
  void handle_commit_update(NodeId from, const smr::Msg& msg);
  void handle_certify(const smr::Msg& msg);
  void handle_commit_qc(const smr::Msg& msg);
  void finish_quit_view();
  void handle_status(const smr::Msg& msg);
  void leader_propose_new_view();
  void handle_new_view_proposal(NodeId from, const smr::Msg& msg);
  void handle_vote(const smr::Msg& msg);
  void handle_round2(NodeId from, const smr::Msg& msg);

  // -- helpers ----------------------------------------------------------------------
  [[nodiscard]] bool is_commit_qc_valid(const smr::QuorumCert& qc);
  void byzantine_equivocate(std::uint64_t round);

  EesmrOptions opts_;

  smr::BlockHash b_lck_;  ///< locked chain tip (B_lck); set in ctor body

  /// Highest round accepted in the current view (the leader may propose
  /// up to opts_.pipeline rounds ahead of this).
  std::uint64_t accepted_round_ = 2;

  // Quit-view state.
  std::optional<smr::QuorumCert> commit_qc_;
  std::uint64_t commit_qc_height_ = 0;
  smr::QuorumTally<std::uint64_t> certify_msgs_{cfg_.n};  ///< per view

  // Bootstrap state (new leader).
  std::map<NodeId, smr::QuorumCert> status_;  ///< commit QCs by author
  std::optional<smr::Block> nv_block_;
  smr::QuorumTally<std::uint64_t> nv_votes_{cfg_.n};  ///< per view

  std::uint64_t equivocations_detected_ = 0;
};

}  // namespace eesmr::protocol
