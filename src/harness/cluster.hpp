// Experiment harness: build a cluster of any protocol over any topology
// and medium, inject faults, run it, and collect the measurements the
// paper reports (per-node energy, commits, view changes, traffic).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/adversary/spec.hpp"
#include "src/baselines/minbft.hpp"
#include "src/baselines/pbft.hpp"
#include "src/baselines/sync_hotstuff.hpp"
#include "src/baselines/trusted_baseline.hpp"
#include "src/client/client.hpp"
#include "src/crypto/verify_memo.hpp"
#include "src/eesmr/eesmr.hpp"
#include "src/harness/checkers.hpp"
#include "src/harness/metrics.hpp"

namespace eesmr::adversary {
class NetAdversary;
class WithholdFilter;
class ByzantineClient;
}  // namespace eesmr::adversary

namespace eesmr::obs {
class Tracer;
}  // namespace eesmr::obs

namespace eesmr::harness {

enum class Protocol {
  kEesmr,
  kSyncHotStuff,
  kOptSync,
  kTrustedBaseline,
  /// Classic partially-synchronous PBFT at n=3f+1 (vote quorum 2f+1).
  kPbft,
  /// MinBFT at n=2f+1: trusted monotonic counters (src/trusted) replace
  /// agreement signatures; quorum f+1.
  kMinBft,
};

const char* protocol_name(Protocol p);

/// Scripted Byzantine behaviour of replica `node`.
struct FaultSpec {
  NodeId node = 0;
  smr::ByzantineConfig byz;
};

struct ClusterConfig {
  Protocol protocol = Protocol::kEesmr;
  std::size_t n = 4;
  std::size_t f = 1;
  /// 0 = fully connected unicast mesh; otherwise the §5.6 k-cast ring.
  std::size_t k = 0;
  energy::Medium medium = energy::Medium::kBle;
  sim::Duration hop_delay = sim::milliseconds(10);
  crypto::SchemeId scheme = crypto::SchemeId::kRsa1024;
  /// Certificate scheme for quorum certificates, checkpoint certificates
  /// and reply acceptance. kAggregate replaces O(n) signature lists with
  /// {signer bitset, one 48-byte aggregate} (simulated BLS, src/crypto/
  /// agg.hpp) — O(1) wire size at any n.
  smr::CertScheme cert_scheme = smr::CertScheme::kIndividual;
  /// Trailing replicas (ids [n - spares, n)) kept OUT of the genesis
  /// signer set: they relay and follow the chain but cannot vote, lead
  /// or attest checkpoints until a committed membership policy admits
  /// them. Excluded from commit/energy accounting (counted = false).
  /// Requires spares < n; unsupported for the trusted baseline.
  std::size_t spares = 0;
  /// Live membership reconfigurations: at `at`, the full next-generation
  /// signer set is injected as a tagged policy command into every online
  /// replica's mempool and takes effect cluster-wide at the commit
  /// boundary of the block that carries it. A zero `generation` is
  /// auto-numbered 1, 2, ... in schedule order.
  struct MembershipEvent {
    sim::Duration at = 0;
    smr::MembershipPolicy policy;
  };
  std::vector<MembershipEvent> membership_events;
  std::size_t batch_size = 1;
  std::size_t cmd_bytes = 16;
  protocol::EesmrOptions eesmr;
  baselines::SyncHsOptions synchs;
  std::vector<FaultSpec> faults;
  std::uint64_t seed = 1;
  /// Deliver every message at exactly the hop bound (worst adversary).
  bool adversarial_delays = false;

  // -- client / workload layer -------------------------------------------------
  /// Simulated client nodes appended after the protocol nodes. When > 0,
  /// every replica gets a KvStore execution app, the mempool's synthetic
  /// filler is disabled (blocks carry real requests only), and RunResult
  /// reports request latency and goodput.
  std::size_t clients = 0;
  /// Replicas each client wires access edges to (0 = all). Clients are
  /// non-relay leaves, so partial attachment never shortcuts the replica
  /// topology.
  std::size_t client_attach = 0;
  client::WorkloadSpec workload;
  /// Client retransmission timeout (0 = never retransmit).
  sim::Duration client_retry = 0;

  // -- dissemination channels (src/net/channel.hpp) -----------------------------
  /// Per-stream dissemination policies for the replica channels.
  /// Entries left at Kind::kDefault resolve to the protocol default
  /// (Flood everywhere; Sync HotStuff votes LocalKcast). E.g. set
  /// `channels[energy::Stream::kVote] = net::DisseminationPolicy::
  /// routed_unicast()` to sweep the vote medium.
  net::ChannelPolicies channels;
  /// Client submission policy for the request channel. kDefault = flood
  /// every request to all replicas (plus client_retry retransmission).
  /// A TargetedSubset policy without an explicit timeout gets a
  /// 4Δ-derived default, and the replica request stream is switched to
  /// RoutedUnicast so contacted replicas forward to the leader.
  net::DisseminationPolicy client_submit;

  // -- checkpointing / admission control (src/checkpoint/) ---------------------
  /// Committed commands per stable checkpoint (0 = off). Enables log
  /// truncation, dedup-set GC and snapshot state transfer; every replica
  /// gets a KvStore app so snapshots carry real state.
  std::uint64_t checkpoint_interval = 0;
  /// Mempool pending-queue bound per replica (0 = unbounded).
  std::size_t mempool_capacity = 0;
  /// Per-client pooled-request cap per replica (0 = unbounded).
  std::size_t client_pending_cap = 0;
  /// Replicas that join late (crash-recovery / late-spawn scenario): the
  /// node is offline — no reception, transmission or energy — until
  /// `delay`, then starts fresh and catches up by chain sync or state
  /// transfer.
  struct LateStart {
    NodeId node = 0;
    sim::Duration delay = 0;
  };
  std::vector<LateStart> late_starts;

  // -- adversary & fault injection (src/adversary/) ----------------------------
  /// Declarative fault script: network-level link faults (drop / delay /
  /// duplicate / reorder with seed-derived deterministic schedules),
  /// Byzantine per-stream withholding, crash/recover schedules, and
  /// Byzantine clients. The Safety/Liveness checkers run on every
  /// cluster regardless; their verdicts land in RunResult.
  adversary::AdversarySpec adversary;

  // -- observability (src/obs/) -------------------------------------------------
  /// Structured event tracer: the cluster opens one epoch (one Chrome
  /// trace "process") and routes every replica's and the fault
  /// injector's events into it. Not owned; nullptr disables tracing.
  obs::Tracer* tracer = nullptr;
  /// Request-scoped causal tracing: sample this many client requests per
  /// run and stitch their lifecycle as Chrome flow events (plus
  /// per-request energy attribution in the profiler snapshot).
  std::size_t trace_requests = 0;
  /// Enable host wall-clock prof::Scope timing (non-deterministic;
  /// perfbench's traced runs set it).
  bool host_timing = false;

  /// Unused; still assigned by perfbench/perfbench.cpp.
  std::size_t crypto_workers = 0;
  /// Unused; still assigned by perfbench/perfbench.cpp.
  bool simulated_keys = true;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);
  ~Cluster();

  void start();

  /// Run until every counted correct node committed at least
  /// `target_blocks`, or until simulated `max_time` elapses.
  RunResult run_until_commits(std::size_t target_blocks,
                              sim::Duration max_time);
  /// Run until clients accepted `target_requests` in total, or until
  /// simulated `max_time` elapses.
  RunResult run_until_accepted(std::uint64_t target_requests,
                               sim::Duration max_time);
  /// Run for a fixed amount of simulated time.
  RunResult run_for(sim::Duration time);

  /// Snapshot current metrics without running further.
  [[nodiscard]] RunResult snapshot() const;

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] net::Network& network() { return *net_; }
  [[nodiscard]] smr::ReplicaBase& replica(NodeId id) {
    return *replicas_.at(id);
  }
  [[nodiscard]] protocol::EesmrReplica& eesmr(NodeId id);
  [[nodiscard]] client::Client& client(std::size_t i) {
    return *clients_.at(i);
  }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  /// Aggregate share directory (null under the individual scheme).
  [[nodiscard]] const std::shared_ptr<crypto::AggKeyring>& agg() const {
    return agg_;
  }
  /// End-to-end Δ derived from the topology (hop bound × diameter + 1).
  [[nodiscard]] sim::Duration delta() const { return delta_; }
  /// The run's deterministic profiler (always on; see src/obs/prof.hpp).
  [[nodiscard]] prof::Profiler& profiler() { return prof_; }

 private:
  [[nodiscard]] std::size_t min_committed_correct() const;
  /// One step of the adaptive chase-the-leader schedule: restore the
  /// previous victim, crash the current-view leader, re-arm.
  void chase_leader_tick();
  /// Feed the safety/liveness checkers from the honest replicas.
  void tick_checkers();
  /// Start, then step the scheduler 4·hop_delay at a time, ticking the
  /// checkers before the first step and after each, until `done()` holds
  /// or simulated `max_time` elapses. Returns the snapshot.
  RunResult step_until(sim::Duration max_time,
                       const std::function<bool()>& done);
  /// Whether any client (honest or Byzantine) still offers load the
  /// chain has not committed — the LivenessChecker's workload input.
  [[nodiscard]] bool load_pending() const;

  ClusterConfig cfg_;
  sim::Scheduler sched_;
  sim::Duration delta_ = 0;
  std::vector<energy::Meter> meters_;
  std::unique_ptr<net::Network> net_;
  /// Signature-verdict memo shared by all replicas.
  crypto::VerifyMemo memo_;
  std::shared_ptr<crypto::Keyring> keyring_;
  std::shared_ptr<crypto::AggKeyring> agg_;
  std::vector<std::unique_ptr<smr::ReplicaBase>> replicas_;
  std::vector<std::unique_ptr<smr::KvStore>> apps_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::vector<bool> correct_;
  std::vector<bool> counted_;
  std::vector<bool> late_;
  bool started_ = false;
  /// Replica currently held down by the chase-the-leader schedule.
  NodeId chase_victim_ = kNoNode;

  // Adversary wiring (src/adversary; owned here, installed on the
  // network / replicas at construction time).
  std::unique_ptr<adversary::NetAdversary> injector_;
  std::vector<std::unique_ptr<adversary::WithholdFilter>> withhold_filters_;
  std::vector<std::unique_ptr<adversary::ByzantineClient>> byz_clients_;
  SafetyChecker safety_;
  LivenessChecker liveness_;
  /// Owned per-run profiler, wired into every replica and client.
  prof::Profiler prof_;
  /// Each replica's retained log as the last snapshot() saw it. The
  /// RunResults share its blocks, so a snapshot copies only the blocks
  /// committed since the previous one.
  mutable std::vector<smr::BlockLog> logs_;
};

}  // namespace eesmr::harness
