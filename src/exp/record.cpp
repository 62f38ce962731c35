#include "src/exp/record.hpp"

#include "src/obs/metrics.hpp"

namespace eesmr::exp {

Json summary_json(const harness::RunSummary& s) {
  Json j = Json::object();
  j.set("nodes", s.nodes);
  j.set("safety_ok", Json(s.safety_ok));
  j.set("min_committed", s.min_committed);
  j.set("max_committed", s.max_committed);
  j.set("view_changes", s.view_changes);
  j.set("transmissions", s.transmissions);
  j.set("bytes_transmitted", s.bytes_transmitted);
  j.set("end_time_s", s.end_time_s);
  j.set("total_energy_mj", s.total_energy_mj);
  j.set("energy_per_block_mj", s.energy_per_block_mj);
  j.set("requests_submitted", s.requests_submitted);
  j.set("requests_accepted", s.requests_accepted);
  j.set("request_retransmissions", s.request_retransmissions);
  j.set("requests_dropped", s.requests_dropped);
  j.set("requests_rate_limited", s.requests_rate_limited);
  j.set("request_failovers", s.request_failovers);
  j.set("requests_forwarded", s.requests_forwarded);
  j.set("request_hints_applied", s.request_hints_applied);
  j.set("controller_dedup_saved", s.controller_dedup_saved);
  j.set("controller_dedup_bytes_saved", s.controller_dedup_bytes_saved);
  j.set("accepted_per_sec", s.accepted_per_sec);
  j.set("latency_samples", s.latency_samples);
  j.set("latency_p50_ms", s.latency_p50_ms);
  j.set("latency_p90_ms", s.latency_p90_ms);
  j.set("latency_p99_ms", s.latency_p99_ms);
  j.set("latency_mean_ms", s.latency_mean_ms);
  j.set("state_transfers", s.state_transfers);
  j.set("max_recovery_ms", s.max_recovery_ms);
  j.set("max_retained_log", s.max_retained_log);
  j.set("max_dedup_entries", s.max_dedup_entries);
  j.set("max_store_blocks", s.max_store_blocks);
  j.set("max_checkpoints_taken", s.max_checkpoints_taken);
  j.set("safety_violations", s.safety_violations);
  j.set("liveness_ok", Json(s.liveness_ok));
  j.set("max_commit_stall_ms", s.max_commit_stall_ms);
  j.set("faults_dropped", s.faults_dropped);
  j.set("faults_duplicated", s.faults_duplicated);
  j.set("faults_reordered", s.faults_reordered);
  j.set("msgs_withheld", s.msgs_withheld);
  j.set("byz_requests_sent", s.byz_requests_sent);
  j.set("adversary_energy_mj", s.adversary_energy_mj);
  // Membership / certificate-scheme keys only on runs that used them,
  // so legacy records round-trip byte-identically.
  if (s.membership_changes != 0) {
    j.set("membership_changes", s.membership_changes);
  }
  if (s.membership_generation != 0) {
    j.set("membership_generation", s.membership_generation);
  }
  if (s.acceptance_certs != 0) j.set("acceptance_certs", s.acceptance_certs);
  return j;
}

namespace {

// The BENCH_*.json sections below read a registry built by
// RunResult::to_registry with no base labels, so every stream sample
// carries exactly {stream, scope} and every per-node sample {node} —
// sample order inside a family is registration order, which to_registry
// fixes to stream-enum / node-id order.

/// Per-stream breakdown from the `eesmr_stream_*` families, scope="all"
/// (clients included). Streams with no traffic were never registered.
Json streams_from_registry(const obs::Registry& reg) {
  Json streams = Json::object();
  const obs::Family* send = reg.find("eesmr_stream_send_mj");
  if (send == nullptr) return streams;
  for (const obs::Sample& s : send->samples) {
    std::string name;
    bool all_scope = false;
    for (const auto& [k, v] : s.labels) {
      if (k == "stream") name = v;
      if (k == "scope") all_scope = v == "all";
    }
    if (!all_scope) continue;
    Json one = Json::object();
    one.set("send_mj", s.value);
    one.set("recv_mj", reg.value("eesmr_stream_recv_mj", s.labels));
    one.set("tx", reg.value("eesmr_stream_tx_total", s.labels));
    one.set("bytes_sent", reg.value("eesmr_stream_bytes_sent_total", s.labels));
    one.set("bytes_received",
            reg.value("eesmr_stream_bytes_received_total", s.labels));
    streams.set(name, std::move(one));
  }
  return streams;
}

/// node_energy_mj array from the per-node energy family, node order.
Json node_energy_from_registry(const obs::Registry& reg) {
  Json node_mj = Json::array();
  if (const obs::Family* fam = reg.find("eesmr_node_energy_mj")) {
    for (const obs::Sample& s : fam->samples) node_mj.push_back(s.value);
  }
  return node_mj;
}

/// footprints array from the `eesmr_footprint_*` families, node order.
/// (flood_dedup_tail stays registry-only: the JSON record predates it and
/// tooling round-trips the historical key set.)
Json footprints_from_registry(const obs::Registry& reg) {
  Json fps = Json::array();
  const obs::Family* retained = reg.find("eesmr_footprint_retained_log");
  if (retained == nullptr) return fps;
  for (const obs::Sample& s : retained->samples) {
    const auto fp = [&](const char* name) {
      return reg.value(name, s.labels);
    };
    Json one = Json::object();
    one.set("retained_log", s.value);
    one.set("store_blocks", fp("eesmr_footprint_store_blocks"));
    one.set("executed_entries", fp("eesmr_footprint_executed_entries"));
    one.set("mempool_pending", fp("eesmr_footprint_mempool_pending"));
    one.set("mempool_committed_keys",
            fp("eesmr_footprint_mempool_committed_keys"));
    one.set("committed_blocks", fp("eesmr_footprint_committed_blocks"));
    one.set("low_water_mark", fp("eesmr_footprint_low_water_mark"));
    one.set("checkpoints_taken", fp("eesmr_footprint_checkpoints_taken"));
    one.set("stable_height", fp("eesmr_footprint_stable_height"));
    one.set("state_transfers", fp("eesmr_footprint_state_transfers"));
    fps.push_back(std::move(one));
  }
  return fps;
}

}  // namespace

Json stream_json(const harness::RunResult& r) {
  obs::Registry reg;
  r.to_registry(reg);
  return streams_from_registry(reg);
}

Json run_result_json(const harness::RunResult& r) {
  obs::Registry reg;
  r.to_registry(reg);

  Json doc = Json::object();
  doc.set("summary", summary_json(harness::summary_from_registry(reg)));
  doc.set("streams", streams_from_registry(reg));
  doc.set("node_energy_mj", node_energy_from_registry(reg));
  Json fps = footprints_from_registry(reg);
  if (fps.size() > 0) doc.set("footprints", std::move(fps));
  return doc;
}

}  // namespace eesmr::exp
