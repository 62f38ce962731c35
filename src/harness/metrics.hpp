// Run-level measurements: the quantities the paper's figures plot.
#pragma once

#include <cstdint>
#include <vector>

#include "src/client/stats.hpp"
#include "src/energy/meter.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/prof.hpp"
#include "src/sim/time.hpp"
#include "src/smr/block.hpp"

namespace eesmr::harness {

/// Per-replica memory/checkpoint footprint (the quantities the bounded-
/// memory acceptance criterion compares: with checkpointing at interval
/// k, retained_log and the dedup sets stay O(k); without, they grow with
/// the run).
struct ReplicaFootprint {
  std::size_t retained_log = 0;           ///< log() blocks kept
  std::size_t store_blocks = 0;           ///< BlockStore entries
  std::size_t executed_entries = 0;       ///< exactly-once reply cache
  std::size_t mempool_pending = 0;
  std::size_t mempool_committed_keys = 0;
  std::size_t flood_dedup_tail = 0;       ///< router seen-window tails
  std::uint64_t committed_blocks = 0;     ///< total ever committed
  std::uint64_t low_water_mark = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t stable_height = 0;
  std::uint64_t state_transfers = 0;

  [[nodiscard]] std::size_t dedup_entries() const {
    return executed_entries + mempool_committed_keys;
  }
};

struct RunResult {
  std::vector<energy::Meter> meters;            ///< per node
  std::vector<smr::BlockLog> logs;              ///< retained, per node
  /// Total blocks ever committed per node (>= logs[i].size(); the
  /// difference is what checkpoint GC truncated). Empty when a RunResult
  /// is assembled by hand — accessors then fall back to logs sizes.
  std::vector<std::uint64_t> committed_blocks;
  std::vector<bool> correct;                    ///< honest && counted
  std::vector<bool> counted;                    ///< counted in energy sums
  std::uint64_t view_changes = 0;               ///< max over correct nodes
  std::uint64_t transmissions = 0;
  std::uint64_t bytes_transmitted = 0;
  sim::SimTime end_time = 0;

  // Client/workload measurements (empty when no clients configured).
  client::LatencyHistogram latency;  ///< submit→accept, all clients
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_accepted = 0;
  std::uint64_t request_retransmissions = 0;
  /// Admission-control sheds: mempool-capacity drops and per-client
  /// pending-cap rejections, summed over replicas.
  std::uint64_t requests_dropped = 0;
  std::uint64_t requests_rate_limited = 0;
  /// TargetedSubset submission: client-side subset rotations and
  /// replica-side request forwards to the leader.
  std::uint64_t request_failovers = 0;
  std::uint64_t requests_forwarded = 0;
  /// Reply-metadata leader hints that re-aimed a client's subset cursor.
  std::uint64_t request_hints_applied = 0;
  /// Trusted baseline: duplicate request orderings the controller dedup
  /// skipped, and the command bytes they would have re-shipped downlink.
  std::uint64_t controller_dedup_saved = 0;
  std::uint64_t controller_dedup_bytes_saved = 0;

  // Checkpoint / state-transfer measurements.
  std::vector<ReplicaFootprint> footprints;  ///< per protocol node
  std::uint64_t state_transfers = 0;         ///< completed catch-ups
  /// Slowest request→restore duration among completed state transfers.
  sim::Duration max_recovery_latency = 0;

  // Adversary / fault-injection measurements (src/adversary). The
  // always-on checkers fill the verdicts on every run, attacked or not.
  /// Conflicting honest commits detected by the in-run SafetyChecker.
  std::uint64_t safety_violations = 0;
  /// Longest stall of the honest commit frontier during the run.
  sim::Duration max_commit_stall = 0;
  /// Configured liveness bound (AdversarySpec::stall_bound; 0 = observe
  /// only, liveness_ok() then never fails).
  sim::Duration liveness_stall_bound = 0;
  /// Network-level fault injections actually applied.
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_reordered = 0;
  /// Outgoing messages suppressed by Byzantine withhold filters.
  std::uint64_t msgs_withheld = 0;
  /// Requests flooded by Byzantine clients.
  std::uint64_t byz_requests_sent = 0;

  // Membership / certificate-scheme measurements (all zero on runs
  // without policy events or the aggregate scheme; exported to the
  // registry and the JSON record only when nonzero, so legacy baselines
  // keep their historical key set).
  /// Committed policy blocks applied (max over counted correct nodes).
  std::uint64_t membership_changes = 0;
  /// Highest active membership generation over counted correct nodes.
  std::uint64_t membership_generation = 0;
  /// O(1) acceptance certificates folded by clients (aggregate scheme).
  std::uint64_t acceptance_certs = 0;

  /// Deterministic profiler snapshot (src/obs/prof.hpp): scheduler
  /// event-kind counts, per-site crypto op counts, codec byte counts,
  /// early drops, sampled-request energy attribution, and (opt-in,
  /// non-deterministic) host wall-clock scopes. Exported into the
  /// registry as the `eesmr_prof_*` families when non-empty.
  prof::Snapshot prof;

  /// Liveness verdict: the honest commit frontier never stalled past the
  /// configured bound (vacuously true when no bound was set).
  [[nodiscard]] bool liveness_ok() const {
    return liveness_stall_bound == 0 ||
           max_commit_stall <= liveness_stall_bound;
  }
  /// Energy spent by adversarial nodes (faulty replicas + Byzantine
  /// clients) — what the attack cost the attacker.
  [[nodiscard]] double adversary_energy_mj() const;

  /// Safety (Definition 2.1): for every height, all correct nodes that
  /// committed (and still retain) a block at that height committed the
  /// same block. Height-keyed, so logs truncated at different stable
  /// checkpoints compare correctly.
  [[nodiscard]] bool safety_ok() const;

  /// Blocks ever committed by node `id` (committed_blocks when recorded,
  /// otherwise the retained log length).
  [[nodiscard]] std::uint64_t committed_at(NodeId id) const;

  /// Minimum committed-block count over correct nodes.
  [[nodiscard]] std::size_t min_committed() const;
  [[nodiscard]] std::size_t max_committed() const;

  /// Largest retained log / dedup-set size over correct protocol nodes
  /// (the memory-bound headline numbers).
  [[nodiscard]] std::size_t max_retained_log() const;
  [[nodiscard]] std::size_t max_dedup_entries() const;

  /// Accepted client requests per simulated second (goodput).
  [[nodiscard]] double accepted_per_sec() const;

  /// Per-stream (channel-class) radio traffic/energy, summed over
  /// counted correct protocol nodes — where each replica Joule went.
  [[nodiscard]] energy::StreamStats stream_totals(energy::Stream s) const;
  /// Same, over every correct node including clients: the full cost of
  /// a stream (e.g. request submission energy paid at the client radio
  /// plus replica relaying).
  [[nodiscard]] energy::StreamStats stream_totals_all(energy::Stream s) const;

  /// Total energy over counted correct nodes (mJ).
  [[nodiscard]] double total_energy_mj() const;
  /// Total energy / min committed blocks — the paper's "energy per SMR".
  [[nodiscard]] double energy_per_block_mj() const;
  [[nodiscard]] double node_energy_mj(NodeId id) const;
  /// Per-node energy / committed blocks of that node.
  [[nodiscard]] double node_energy_per_block_mj(NodeId id) const;

  /// Register every measurement of this run into `reg` under the
  /// canonical `eesmr_*` metric families, `base` labels prepended to
  /// every sample: the flat `eesmr_run_*` families (one per RunSummary
  /// field), the request-latency histogram, per-node gauges (label
  /// `node`), per-stream radio stats (labels `stream`, `scope`), and
  /// per-category energy/ops totals (label `category`). This snapshot is
  /// the single source the summary and BENCH_*.json records derive from.
  void to_registry(obs::Registry& reg, const obs::Labels& base = {}) const;

  /// Flatten into the serializable summary record below — derived from a
  /// registry snapshot (to_registry + summary_from_registry), not
  /// plumbed field by field.
  [[nodiscard]] struct RunSummary summarize() const;
};

/// Read a RunSummary back out of a registry populated by
/// RunResult::to_registry with the same `base` labels. Throws
/// std::out_of_range when a run-level family is missing.
[[nodiscard]] struct RunSummary summary_from_registry(
    const obs::Registry& reg, const obs::Labels& base = {});

/// The flat, serialization-ready digest of a RunResult: every scalar the
/// paper's figures plot, with times in milliseconds/seconds. This is the
/// record the experiment engine writes into BENCH_*.json (alongside the
/// per-stream breakdown, which keeps its own structure).
struct RunSummary {
  std::size_t nodes = 0;  ///< meters (protocol nodes + clients)
  /// Final-log cross-check AND zero in-run SafetyChecker violations.
  bool safety_ok = true;
  std::uint64_t min_committed = 0;
  std::uint64_t max_committed = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t bytes_transmitted = 0;
  double end_time_s = 0;

  double total_energy_mj = 0;
  double energy_per_block_mj = 0;

  // Client / workload.
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_accepted = 0;
  std::uint64_t request_retransmissions = 0;
  std::uint64_t requests_dropped = 0;
  std::uint64_t requests_rate_limited = 0;
  std::uint64_t request_failovers = 0;
  std::uint64_t requests_forwarded = 0;
  std::uint64_t request_hints_applied = 0;
  std::uint64_t controller_dedup_saved = 0;
  std::uint64_t controller_dedup_bytes_saved = 0;
  double accepted_per_sec = 0;
  std::uint64_t latency_samples = 0;
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  double latency_p99_ms = 0;
  double latency_mean_ms = 0;

  // Checkpoint / memory.
  std::uint64_t state_transfers = 0;
  double max_recovery_ms = 0;
  std::size_t max_retained_log = 0;
  std::size_t max_dedup_entries = 0;
  std::size_t max_store_blocks = 0;       ///< over counted correct nodes
  std::uint64_t max_checkpoints_taken = 0;

  // Adversary / fault injection.
  std::uint64_t safety_violations = 0;
  bool liveness_ok = true;
  double max_commit_stall_ms = 0;
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_reordered = 0;
  std::uint64_t msgs_withheld = 0;
  std::uint64_t byz_requests_sent = 0;
  double adversary_energy_mj = 0;

  // Membership / certificate scheme (see RunResult; zero when unused).
  std::uint64_t membership_changes = 0;
  std::uint64_t membership_generation = 0;
  std::uint64_t acceptance_certs = 0;
};

}  // namespace eesmr::harness
