// Trusted-baseline protocol (§5.1 "Comparison with trusted-baseline").
//
// Every CPS node ships its pending commands to an externally-powered
// trusted control node over an expensive medium (4G in the paper's
// example) and receives the ordered, control-signed block back. The
// control node's energy is not counted (it is mains-powered); the CPS
// nodes pay the uplink/downlink and one signature verification per
// block. Tolerates f Byzantine CPS nodes trivially (the control node is
// trusted), but every consensus unit costs 2 expensive-medium messages
// per node.
#pragma once

#include <map>
#include <vector>

#include "src/smr/replica.hpp"

namespace eesmr::baselines {

/// The control node: collects kSubmit batches, orders them into a
/// hash-chained log, and unicasts the signed block to every CPS node.
/// Deployed as node id n in an (n+1)-node star topology.
class TrustedController final : public smr::ReplicaBase {
 public:
  /// Orders each flooded client request once, not once per submitting
  /// CPS node. Every node pools a flooded request and ships it up in its
  /// next kSubmit batch, so without dedup the controller would order up
  /// to n copies — each copy costing a downlink slot in an ordered block
  /// that every CPS node pays to receive (exactly-once execution absorbs
  /// the duplicates, but only after the radio energy is spent). Keyed by
  /// (client, req_id); untagged synthetic commands are never
  /// deduplicated (distinct operations by definition).
  TrustedController(net::Network& net, smr::ReplicaConfig cfg,
                    energy::Meter* meter);

  void start() override;

  /// Duplicate request orderings skipped thanks to dedup, and the
  /// command bytes they would have re-shipped in ordered blocks.
  [[nodiscard]] std::uint64_t dedup_orderings_saved() const {
    return dedup_skipped_;
  }
  [[nodiscard]] std::uint64_t dedup_bytes_saved() const {
    return dedup_bytes_;
  }
  /// Live dedup-state size: one watermark per client plus the sparse
  /// tails. Bounded at O(clients · tail window), not O(requests) — the
  /// ROADMAP unbounded-seen-set fix.
  [[nodiscard]] std::size_t dedup_state_entries() const {
    std::size_t total = 0;
    for (const auto& [client, win] : seen_requests_) {
      total += 1 + win.tail_size();
    }
    return total;
  }

 protected:
  void handle(NodeId from, const smr::Msg& msg) override;

 private:
  void order_round();

  smr::BlockHash tip_;
  std::uint64_t tip_height_ = 0;
  std::vector<smr::Command> pending_;
  bool round_timer_armed_ = false;
  /// Tagged requests already accepted for ordering (pending or ordered),
  /// compacted per client into a contiguous watermark + sparse tail over
  /// req_ids (clients issue ascending ids from 1, so the prefix folds
  /// as submissions arrive; a Byzantine client leaving persistent gaps
  /// is force-compacted past them at the tail bound, which can only
  /// over-dedup its own requests).
  std::map<NodeId, net::FloodRouter::SeenWindow> seen_requests_;
  std::uint64_t dedup_skipped_ = 0;
  std::uint64_t dedup_bytes_ = 0;
};

/// A CPS node in the baseline: submits commands every `submit interval`
/// and commits whatever ordered blocks the control node signs.
class TrustedBaselineReplica final : public smr::ReplicaBase {
 public:
  /// `controller` is the control node's id (= n by convention).
  TrustedBaselineReplica(net::Network& net, smr::ReplicaConfig cfg,
                         NodeId controller, energy::Meter* meter);

  void start() override;

 protected:
  void handle(NodeId from, const smr::Msg& msg) override;

 private:
  void submit_round();

  NodeId controller_;
};

}  // namespace eesmr::baselines
