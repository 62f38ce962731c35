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

  /// Walk every field once, in export order: `v(key, help, value)`. Each
  /// is the gauge family `eesmr_footprint_<key>` and the key `<key>` of a
  /// BENCH_*.json footprint. flood_dedup_tail is registry-only (the JSON
  /// record predates it), so it is walked only when `with_flood_tail`.
  template <class Visit>
  void visit(Visit&& v, bool with_flood_tail) const {
    v("retained_log", "Retained committed-log blocks", retained_log);
    v("store_blocks", "BlockStore entries", store_blocks);
    v("executed_entries", "Exactly-once reply cache size", executed_entries);
    v("mempool_pending", "Pending mempool requests", mempool_pending);
    v("mempool_committed_keys", "Mempool committed-key set",
      mempool_committed_keys);
    if (with_flood_tail) {
      v("flood_dedup_tail", "Flood-router dedup tail entries",
        flood_dedup_tail);
    }
    v("committed_blocks", "Blocks ever committed", committed_blocks);
    v("low_water_mark", "Stable-checkpoint truncation height",
      low_water_mark);
    v("checkpoints_taken", "Checkpoints taken", checkpoints_taken);
    v("stable_height", "Highest stable checkpoint", stable_height);
    v("state_transfers", "Completed snapshot catch-ups", state_transfers);
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
  /// field, named by RunSummary::visit), the request-latency histogram,
  /// per-node gauges and footprints (label `node`; the footprint families
  /// named by ReplicaFootprint::visit), per-stream radio stats (labels
  /// `stream`, `scope`), and per-category energy/ops totals (label
  /// `category`).
  void to_registry(obs::Registry& reg, const obs::Labels& base = {}) const;

  /// Flatten into the serializable summary record below.
  [[nodiscard]] struct RunSummary summarize() const;
};

/// The flat, serialization-ready digest of a RunResult: every scalar the
/// paper's figures plot, with times in milliseconds/seconds. visit() is
/// the one list of these metrics: the experiment engine writes it into
/// BENCH_*.json (alongside the per-stream breakdown, which keeps its own
/// structure) and RunResult::to_registry into the `eesmr_run_*` families.
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

  /// Walk every field once, in declaration order:
  /// `v(key, help, kind, value)`, `value` keeping the field's type. `key`
  /// is the BENCH_*.json summary key; the registry family is
  /// `eesmr_run_<key>`, plus `_total` for counters, except that
  /// `end_time_s` is `eesmr_run_end_time_seconds`. The membership and
  /// certificate-scheme fields are walked only when nonzero, so runs that
  /// never used them keep their historical key set in both outputs.
  template <class Visit>
  void visit(Visit&& v) const;
};

template <class Visit>
void RunSummary::visit(Visit&& v) const {
  using enum obs::MetricKind;
  v("nodes", "Metered nodes (protocol nodes + clients)", kGauge, nodes);
  v("safety_ok",
    "1 when the final-log cross-check and the in-run SafetyChecker agree "
    "no conflicting honest commits happened",
    kGauge, safety_ok);
  v("min_committed", "Minimum committed blocks over correct nodes", kGauge,
    min_committed);
  v("max_committed", "Maximum committed blocks over correct nodes", kGauge,
    max_committed);
  v("view_changes", "View changes (max over correct nodes)", kCounter,
    view_changes);
  v("transmissions", "Radio send operations, cluster-wide", kCounter,
    transmissions);
  v("bytes_transmitted", "Bytes transmitted, cluster-wide", kCounter,
    bytes_transmitted);
  v("end_time_s", "Simulated run duration", kGauge, end_time_s);
  v("total_energy_mj", "Total energy over counted correct nodes (mJ)", kGauge,
    total_energy_mj);
  v("energy_per_block_mj",
    "Total energy / min committed blocks (the paper's energy per SMR)",
    kGauge, energy_per_block_mj);

  v("requests_submitted", "Client requests submitted", kCounter,
    requests_submitted);
  v("requests_accepted", "Client requests accepted (f+1 matching replies)",
    kCounter, requests_accepted);
  v("request_retransmissions", "Client retransmissions", kCounter,
    request_retransmissions);
  v("requests_dropped", "Mempool-capacity request drops", kCounter,
    requests_dropped);
  v("requests_rate_limited", "Per-client pending-cap rejections", kCounter,
    requests_rate_limited);
  v("request_failovers", "Client-side submission subset rotations", kCounter,
    request_failovers);
  v("requests_forwarded", "Replica-side request forwards to the leader",
    kCounter, requests_forwarded);
  v("request_hints_applied", "Reply-metadata leader hints applied by clients",
    kCounter, request_hints_applied);
  v("controller_dedup_saved",
    "Duplicate orderings the trusted controller dedup skipped", kCounter,
    controller_dedup_saved);
  v("controller_dedup_bytes_saved",
    "Downlink command bytes the controller dedup saved", kCounter,
    controller_dedup_bytes_saved);
  v("accepted_per_sec",
    "Accepted client requests per simulated second (goodput)", kGauge,
    accepted_per_sec);
  v("latency_samples", "Request latency sample count", kGauge,
    latency_samples);
  // Exact nearest-rank quantiles from the raw samples; the bucketed form
  // of the SAME observations is the eesmr_request_latency_ms histogram.
  v("latency_p50_ms", "Exact request-latency p50 (ms)", kGauge,
    latency_p50_ms);
  v("latency_p90_ms", "Exact request-latency p90 (ms)", kGauge,
    latency_p90_ms);
  v("latency_p99_ms", "Exact request-latency p99 (ms)", kGauge,
    latency_p99_ms);
  v("latency_mean_ms", "Mean request latency (ms)", kGauge, latency_mean_ms);

  v("state_transfers", "Completed snapshot catch-ups", kCounter,
    state_transfers);
  v("max_recovery_ms", "Slowest request-to-restore state transfer (ms)",
    kGauge, max_recovery_ms);
  v("max_retained_log", "Largest retained log over correct protocol nodes",
    kGauge, max_retained_log);
  v("max_dedup_entries", "Largest dedup-set size over correct protocol nodes",
    kGauge, max_dedup_entries);
  v("max_store_blocks", "Largest block store over counted correct nodes",
    kGauge, max_store_blocks);
  v("max_checkpoints_taken", "Most checkpoints taken by a counted correct node",
    kGauge, max_checkpoints_taken);

  v("safety_violations",
    "Conflicting honest commits the in-run SafetyChecker detected", kCounter,
    safety_violations);
  v("liveness_ok",
    "1 when the honest commit frontier never stalled past the bound", kGauge,
    liveness_ok);
  v("max_commit_stall_ms", "Longest honest commit-frontier stall (ms)", kGauge,
    max_commit_stall_ms);
  v("faults_dropped", "Injected delivery drops", kCounter, faults_dropped);
  v("faults_duplicated", "Injected delivery duplicates", kCounter,
    faults_duplicated);
  v("faults_reordered", "Injected delivery reorder delays", kCounter,
    faults_reordered);
  v("msgs_withheld", "Messages suppressed by Byzantine withhold filters",
    kCounter, msgs_withheld);
  v("byz_requests_sent", "Requests flooded by Byzantine clients", kCounter,
    byz_requests_sent);
  v("adversary_energy_mj", "Energy spent by adversarial nodes (mJ)", kGauge,
    adversary_energy_mj);

  if (membership_changes != 0) {
    v("membership_changes", "Committed membership policy blocks applied",
      kCounter, membership_changes);
  }
  if (membership_generation != 0) {
    v("membership_generation", "Highest active membership generation", kGauge,
      membership_generation);
  }
  if (acceptance_certs != 0) {
    v("acceptance_certs", "O(1) acceptance certificates folded by clients",
      kCounter, acceptance_certs);
  }
}

}  // namespace eesmr::harness
