// Simulated client node: the external request/reply side of the §3 SMR
// definition. A Client attaches to the net::Network as a non-forwarding
// leaf, submits signed kRequest messages through a typed request channel
// (flood-all by default; TargetedSubset contacts a rotating replica
// subset with timeout-driven failover and exponential backoff), collects
// signed kReply acknowledgments, and accepts a result once f+1 replicas
// reported the same one (smr::AckCollector). Per-request submit→accept
// latency feeds the latency histogram the harness aggregates.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "src/client/stats.hpp"
#include "src/client/workload.hpp"
#include "src/crypto/signer.hpp"
#include "src/energy/meter.hpp"
#include "src/net/channel.hpp"
#include "src/net/flood.hpp"
#include "src/obs/prof.hpp"
#include "src/sim/rng.hpp"
#include "src/smr/app.hpp"
#include "src/smr/message.hpp"
#include "src/smr/node_crypto.hpp"
#include "src/smr/request.hpp"

namespace eesmr::client {

struct ClientConfig {
  /// Node id in the hypergraph; must be >= the replica count (replies
  /// from replica ids below `n` are the only ones trusted).
  NodeId id = 0;
  /// Number of protocol nodes that may author replies.
  std::size_t n = 4;
  std::size_t f = 1;
  /// Key directory covering replicas AND this client's id.
  std::shared_ptr<crypto::Keyring> keyring;
  /// Certificate scheme the cluster runs. Under kAggregate, replies are
  /// 48-byte aggregate shares over the acceptance preimage instead of
  /// directory signatures over the Msg, and the client folds the f+1
  /// matching shares into an O(1) transferable AcceptanceCert.
  smr::CertScheme cert_scheme = smr::CertScheme::kIndividual;
  /// Aggregate share directory; required iff cert_scheme == kAggregate.
  std::shared_ptr<crypto::AggKeyring> agg;
  WorkloadSpec workload;
  std::uint64_t seed = 1;
  /// Retransmit a still-unaccepted request after this long (0 = never).
  /// Safe under at-most-once execution: replicas pool a request at most
  /// once and replay the stored result on duplicates. Folded into the
  /// request channel as its submission timeout when `submit` does not
  /// set one itself.
  sim::Duration retry_after = 0;
  /// Submission policy for the request channel. kDefault = Flood (every
  /// request reaches all replicas). TargetedSubset contacts
  /// `subset_size` replicas, rotating away from unresponsive ones with
  /// exponential backoff — the failover submission mode; pair it with a
  /// replica-side unicast request stream so the contacted replica
  /// forwards to the leader.
  net::DisseminationPolicy submit;

  /// Deterministic profiler (src/obs/prof.hpp): client-side crypto /
  /// codec counters and request sampling. Not owned; may be nullptr.
  prof::Profiler* profiler = nullptr;
  /// Tracer the sampled-request flow events go to. Not owned.
  obs::Tracer* tracer = nullptr;
};

class Client final : public net::FloodClient {
 public:
  /// `meter` may be nullptr (no client-side energy accounting).
  Client(net::Network& net, ClientConfig cfg, energy::Meter* meter = nullptr);

  /// Begin submitting according to the workload spec.
  void start();

  // net::FloodClient:
  void on_deliver(NodeId origin, BytesView payload) override;

  // -- observability -----------------------------------------------------------
  [[nodiscard]] NodeId id() const { return cfg_.id; }
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  /// Timeout-driven re-submissions (the request channel's resends).
  [[nodiscard]] std::uint64_t retransmissions() const {
    return channel_->resends();
  }
  /// Subset rotations under a TargetedSubset submission policy.
  [[nodiscard]] std::uint64_t failovers() const {
    return channel_->failovers();
  }
  /// Leader hints from reply metadata that re-aimed the subset cursor.
  [[nodiscard]] std::uint64_t leader_hints_applied() const {
    return channel_->hints_applied();
  }
  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }
  [[nodiscard]] const LatencyHistogram& latencies() const { return latency_; }
  /// Accepted results by req_id (the f+1-matched execution results).
  /// Capped at kMaxStoredResults so unbounded benchmark runs do not
  /// accumulate memory; latency/throughput accounting is unaffected.
  [[nodiscard]] const std::map<std::uint64_t, Bytes>& results() const {
    return results_;
  }
  static constexpr std::size_t kMaxStoredResults = 4096;
  /// Folded acceptance certificates by req_id (aggregate scheme only;
  /// capped like results()).
  [[nodiscard]] const std::map<std::uint64_t, smr::AcceptanceCert>&
  acceptance_certs() const {
    return acceptance_certs_;
  }
  /// Total acceptance certificates folded (uncapped count).
  [[nodiscard]] std::uint64_t acceptance_certs_folded() const {
    return certs_folded_;
  }
  /// Fewest distinct replica replies any accepted request had seen at
  /// acceptance time; >= f+1 by the acceptance rule. 0 before any accept.
  [[nodiscard]] std::size_t min_replies_at_accept() const {
    return accepted_ == 0 ? 0 : min_replies_at_accept_;
  }
  /// True while this client still generates or awaits load: its budget
  /// has not run out, or submitted requests are still unaccepted. Drives
  /// the harness's workload-aware liveness verdicts.
  [[nodiscard]] bool has_pending_load() const {
    return budget_left() || !pending_.empty();
  }

 private:
  struct Pending {
    sim::SimTime submitted_at = 0;
    smr::AckCollector acks;
    /// Aggregate scheme: verified (result, share) per replier, so the
    /// f+1 shares matching the accepted result fold into one cert.
    std::map<NodeId, std::pair<Bytes, Bytes>> shares;

    Pending(sim::SimTime at, std::size_t f) : submitted_at(at), acks(f) {}
  };

  void fill_window();
  void submit_one();
  void schedule_next_arrival();
  [[nodiscard]] bool budget_left() const {
    return cfg_.workload.max_requests == 0 ||
           submitted_ < cfg_.workload.max_requests;
  }

  net::FloodRouter router_;
  ClientConfig cfg_;
  /// Signs requests, verifies replies and folds acceptance certificates,
  /// charged to the client's meter and counted under "client".
  smr::NodeCrypto crypto_;
  sim::Scheduler& sched_;
  sim::Rng rng_;
  std::unique_ptr<CommandGen> gen_;
  /// Request channel: owns the signed wire bytes of every in-flight
  /// request (retransmits resend those exact bytes so mempool dedup
  /// never depends on signature determinism) and the failover timers.
  std::unique_ptr<net::Channel> channel_;

  bool started_ = false;
  std::uint64_t next_req_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::size_t min_replies_at_accept_ = 0;
  std::map<std::uint64_t, Pending> pending_;
  std::map<std::uint64_t, Bytes> results_;
  std::map<std::uint64_t, smr::AcceptanceCert> acceptance_certs_;
  std::uint64_t certs_folded_ = 0;
  LatencyHistogram latency_;
};

}  // namespace eesmr::client
