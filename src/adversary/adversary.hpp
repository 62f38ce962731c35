// Scripted, composable fault injection between replicas/clients and the
// channel/network stack (the subsystem the conformance matrix and
// bench/fig_byzantine drive):
//
//  * NetAdversary    — AdversarySpec::LinkFault rules installed on
//                      net::Network: per-link/per-stream drop, delay,
//                      duplication and reordering with a deterministic
//                      schedule derived from the run seed.
//  * WithholdFilter  — Byzantine per-stream withholding installed as a
//                      smr::OutboundPolicy (selective dissemination per
//                      traffic class; vote suppression is the kVote
//                      instance).
//  * ByzantineClient — garbage-signature floods and req_id replay
//                      against the replica dedup/admission path.
//  * AttackKind      — the named protocol×attack conformance cells:
//                      apply_attack() turns a kind into the FaultSpec /
//                      AdversarySpec edits for an SMR ClusterConfig.
//
// Crash/recover schedules (AdversarySpec::crashes) need no class here:
// the Cluster turns them into scheduler events over the existing
// set_online machinery, generalizing late_starts.
#pragma once

#include <memory>
#include <vector>

#include "src/adversary/spec.hpp"
#include "src/harness/cluster.hpp"
#include "src/net/flood.hpp"
#include "src/net/network.hpp"
#include "src/sim/rng.hpp"
#include "src/smr/replica.hpp"

namespace eesmr::adversary {

/// Network-level fault injection: evaluates the first matching LinkFault
/// rule per delivery. All randomness comes from one Rng seeded from the
/// run seed; within a run the scheduler is deterministic, so the fault
/// schedule is a pure function of (spec, seed, traffic).
class NetAdversary final : public net::FaultInjector {
 public:
  NetAdversary(std::vector<AdversarySpec::LinkFault> rules,
               sim::Scheduler& sched, std::uint64_t seed);

  net::FaultVerdict on_delivery(NodeId from, NodeId to,
                                energy::Stream stream,
                                std::size_t bytes) override;

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t reordered() const { return reordered_; }

  /// Emit an instant event per injected fault (not owned; nullptr off).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  void trace_fault(const char* what, NodeId from, NodeId to);

  std::vector<AdversarySpec::LinkFault> rules_;
  sim::Scheduler& sched_;
  sim::Rng rng_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
};

/// Byzantine outbound filter for one replica: suppresses outgoing
/// messages whose type's stream matches a Withhold rule.
class WithholdFilter final : public smr::OutboundPolicy {
 public:
  WithholdFilter(std::vector<AdversarySpec::Withhold> rules,
                 sim::Scheduler& sched, std::uint64_t seed);

  [[nodiscard]] bool allow(const smr::Msg& m, NodeId dest) override;

  [[nodiscard]] std::uint64_t withheld() const { return withheld_; }

 private:
  std::vector<AdversarySpec::Withhold> rules_;
  sim::Scheduler& sched_;
  sim::Rng rng_;
  std::uint64_t withheld_ = 0;
};

/// Byzantine client node (a non-relay leaf like honest clients): floods
/// kRequest messages per its AdversarySpec::ByzClient script and ignores
/// every reply.
class ByzantineClient final : public net::FloodClient {
 public:
  ByzantineClient(net::Network& net, NodeId id,
                  std::shared_ptr<crypto::Keyring> keyring,
                  AdversarySpec::ByzClient spec, std::uint64_t seed,
                  energy::Meter* meter);

  void start();
  void on_deliver(NodeId, BytesView) override {}  // replies are ignored

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  /// Still inside the scripted flood budget (0 = floods forever).
  [[nodiscard]] bool budget_left() const {
    return spec_.max_requests == 0 || sent_ < spec_.max_requests;
  }

 private:
  void fire();
  [[nodiscard]] Bytes next_request();

  net::FloodRouter router_;
  sim::Scheduler& sched_;
  NodeId id_;
  AdversarySpec::ByzClient spec_;
  sim::Rng rng_;
  /// Signs its requests, charged to its meter; no profiler, so its ops
  /// are not counted.
  smr::NodeCrypto crypto_;
  Bytes replay_wire_;  ///< kReplayFlood: the one signed request
  std::uint64_t next_req_id_ = 1;
  std::uint64_t sent_ = 0;
};

// ---------------------------------------------------------------------------
// The protocol × attack conformance matrix
// ---------------------------------------------------------------------------

/// Named attack scenarios, each applied at the protocol's fault budget
/// (f Byzantine nodes — except kOverBudgetCrash, which deliberately
/// crashes n-1 replicas to pin the tolerance boundary).
enum class AttackKind {
  kNone,
  kCrash,                ///< f replicas stop mid-run (no-progress VC)
  kCrashRecover,         ///< f replicas crash, then recover and catch up
  kOverBudgetCrash,      ///< n-1 replicas crash: liveness MUST fail
  kEquivocate,           ///< divergent proposals flooded to everyone
  kEquivocateSelective,  ///< divergent proposals to disjoint peer subsets
  kWithholdProposals,    ///< f replicas suppress their proposal stream
  kVoteSuppression,      ///< f replicas suppress their vote stream
  kDupReorder,           ///< every link duplicates + reorders (within Δ)
  kFaultyLinkDrop,       ///< 50% loss on everything f faulty nodes send
  kGarbageClientFlood,   ///< invalid-signature request flood
  kReplayClientFlood,    ///< (client, req_id) replay flood
  kChaseLeader,          ///< adaptive crash following the current leader
  kMembershipChurn,      ///< Byzantine equivocation straddling a policy
                         ///< handoff + a joiner crashed mid-bootstrap
};

const char* attack_name(AttackKind a);
const std::vector<AttackKind>& all_attacks();

/// Edit `cfg` so one run executes `attack` at cfg.f Byzantine nodes.
/// Faulty replicas are 1..f: leader_of(view) = view % n makes node 1
/// the view-1 leader, so leader-centric attacks bite immediately.
void apply_attack(harness::ClusterConfig& cfg, AttackKind attack);

/// Documented tolerance: whether `protocol` claims liveness under
/// `attack` at its fault budget. Safety is claimed by every protocol
/// under every attack here — that column is asserted unconditionally.
bool expect_liveness(harness::Protocol protocol, AttackKind attack);

}  // namespace eesmr::adversary
