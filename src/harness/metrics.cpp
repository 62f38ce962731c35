#include "src/harness/metrics.hpp"

#include <algorithm>
#include <string>
#include <string_view>

namespace eesmr::harness {

double RunResult::adversary_energy_mj() const {
  double total = 0;
  for (std::size_t i = 0; i < meters.size(); ++i) {
    if (i < correct.size() && !correct[i]) {
      total += meters[i].total_millijoules();
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Registry snapshot: the canonical metric surface of a run
// ---------------------------------------------------------------------------

namespace {

/// Registry family of a RunSummary key (see RunSummary::visit).
std::string run_family(const char* key, obs::MetricKind kind) {
  if (std::string_view(key) == "end_time_s") {
    return "eesmr_run_end_time_seconds";
  }
  return std::string("eesmr_run_") + key +
         (kind == obs::MetricKind::kCounter ? "_total" : "");
}

}  // namespace

void RunResult::to_registry(obs::Registry& reg,
                            const obs::Labels& base) const {
  summarize().visit([&](const char* key, const char* help,
                        obs::MetricKind kind, auto value) {
    const auto x = static_cast<double>(value);
    if (kind == obs::MetricKind::kCounter) {
      reg.set_counter(run_family(key, kind), help, base, x);
    } else {
      reg.set_gauge(run_family(key, kind), help, base, x);
    }
  });

  reg.set_histogram("eesmr_request_latency_ms",
                    "Submit-to-accept request latency, bucketed (ms)", base,
                    latency.buckets());

  // Per-node gauges.
  for (std::size_t i = 0; i < meters.size(); ++i) {
    obs::Labels labels = base;
    labels.emplace_back("node", std::to_string(i));
    reg.set_gauge("eesmr_node_energy_mj", "Per-node total energy (mJ)",
                  labels, meters[i].total_millijoules());
  }
  for (std::size_t i = 0; i < logs.size(); ++i) {
    obs::Labels labels = base;
    labels.emplace_back("node", std::to_string(i));
    reg.set_gauge("eesmr_node_committed_blocks",
                  "Blocks ever committed by the node", labels,
                  static_cast<double>(committed_at(static_cast<NodeId>(i))));
    reg.set_gauge("eesmr_node_correct",
                  "1 when the node is honest and unscripted", labels,
                  i < correct.size() && correct[i] ? 1 : 0);
  }
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    obs::Labels labels = base;
    labels.emplace_back("node", std::to_string(i));
    footprints[i].visit(
        [&](const char* key, const char* help, auto value) {
          reg.set_gauge(std::string("eesmr_footprint_") + key, help, labels,
                        static_cast<double>(value));
        },
        /*with_flood_tail=*/true);
  }

  // Per-stream radio stats, in stream order, one sample per
  // (stream, scope). Idle streams are skipped, as in the BENCH_*.json
  // stream section.
  for (const char* scope : {"all", "counted"}) {
    for (std::size_t s = 0; s < energy::kNumStreams; ++s) {
      const auto stream = static_cast<energy::Stream>(s);
      const energy::StreamStats st = std::string(scope) == "all"
                                         ? stream_totals_all(stream)
                                         : stream_totals(stream);
      if (st.idle()) continue;
      obs::Labels labels = base;
      labels.emplace_back("stream", energy::stream_name(stream));
      labels.emplace_back("scope", scope);
      reg.set_gauge("eesmr_stream_send_mj",
                    "Per-stream radio transmit energy (mJ)", labels,
                    st.send_mj);
      reg.set_gauge("eesmr_stream_recv_mj",
                    "Per-stream radio receive energy (mJ)", labels,
                    st.recv_mj);
      reg.set_counter("eesmr_stream_tx_total", "Per-stream send operations",
                      labels, static_cast<double>(st.transmissions));
      reg.set_counter("eesmr_stream_bytes_sent_total",
                      "Per-stream bytes sent", labels,
                      static_cast<double>(st.bytes_sent));
      reg.set_counter("eesmr_stream_bytes_received_total",
                      "Per-stream bytes received", labels,
                      static_cast<double>(st.bytes_received));
    }
  }

  // Per-category energy/ops over counted correct nodes.
  for (std::size_t ci = 0; ci < energy::kNumCategories; ++ci) {
    const auto cat = static_cast<energy::Category>(ci);
    double mj = 0;
    std::uint64_t ops = 0;
    for (std::size_t i = 0; i < meters.size(); ++i) {
      if (i < correct.size() && correct[i] && i < counted.size() &&
          counted[i]) {
        mj += meters[i].millijoules(cat);
        ops += meters[i].ops(cat);
      }
    }
    obs::Labels labels = base;
    labels.emplace_back("category", energy::category_name(cat));
    reg.set_gauge("eesmr_category_energy_mj",
                  "Per-category energy over counted correct nodes (mJ)",
                  labels, mj);
    reg.set_counter("eesmr_category_ops_total",
                    "Per-category operations over counted correct nodes",
                    labels, static_cast<double>(ops));
  }

  // Deterministic profiler families (eesmr_prof_*). Empty for hand-built
  // RunResults, so legacy tests see no new families.
  if (!prof.empty()) prof.to_registry(reg, base);
}

RunSummary RunResult::summarize() const {
  std::size_t max_store = 0;
  std::uint64_t max_ckpts = 0;
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    if (i < correct.size() && correct[i] && i < counted.size() && counted[i]) {
      max_store = std::max(max_store, footprints[i].store_blocks);
      max_ckpts = std::max(max_ckpts, footprints[i].checkpoints_taken);
    }
  }
  return RunSummary{
      .nodes = meters.size(),
      .safety_ok = safety_ok() && safety_violations == 0,
      .min_committed = min_committed(),
      .max_committed = max_committed(),
      .view_changes = view_changes,
      .transmissions = transmissions,
      .bytes_transmitted = bytes_transmitted,
      .end_time_s = sim::to_seconds(end_time),
      .total_energy_mj = total_energy_mj(),
      .energy_per_block_mj = energy_per_block_mj(),
      .requests_submitted = requests_submitted,
      .requests_accepted = requests_accepted,
      .request_retransmissions = request_retransmissions,
      .requests_dropped = requests_dropped,
      .requests_rate_limited = requests_rate_limited,
      .request_failovers = request_failovers,
      .requests_forwarded = requests_forwarded,
      .request_hints_applied = request_hints_applied,
      .controller_dedup_saved = controller_dedup_saved,
      .controller_dedup_bytes_saved = controller_dedup_bytes_saved,
      .accepted_per_sec = accepted_per_sec(),
      .latency_samples = latency.count(),
      .latency_p50_ms = sim::to_milliseconds(latency.p50()),
      .latency_p90_ms = sim::to_milliseconds(latency.p90()),
      .latency_p99_ms = sim::to_milliseconds(latency.p99()),
      .latency_mean_ms = latency.mean_ms(),
      .state_transfers = state_transfers,
      .max_recovery_ms = sim::to_milliseconds(max_recovery_latency),
      .max_retained_log = max_retained_log(),
      .max_dedup_entries = max_dedup_entries(),
      .max_store_blocks = max_store,
      .max_checkpoints_taken = max_ckpts,
      .safety_violations = safety_violations,
      .liveness_ok = liveness_ok(),
      .max_commit_stall_ms = sim::to_milliseconds(max_commit_stall),
      .faults_dropped = faults_dropped,
      .faults_duplicated = faults_duplicated,
      .faults_reordered = faults_reordered,
      .msgs_withheld = msgs_withheld,
      .byz_requests_sent = byz_requests_sent,
      .adversary_energy_mj = adversary_energy_mj(),
      .membership_changes = membership_changes,
      .membership_generation = membership_generation,
      .acceptance_certs = acceptance_certs,
  };
}

}  // namespace eesmr::harness
