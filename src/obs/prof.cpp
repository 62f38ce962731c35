#include "src/obs/prof.hpp"

#include <algorithm>

namespace eesmr::prof {

bool Snapshot::empty() const {
  return sched_events.empty() && crypto_ops.empty() && codec_bytes.empty() &&
         early_drops == 0 && !pipeline.any() && host_scopes.empty() &&
         requests.empty();
}

void Snapshot::to_registry(obs::Registry& reg, const obs::Labels& base) const {
  const auto with = [&](std::initializer_list<std::pair<std::string, std::string>>
                            extra) {
    obs::Labels l = base;
    for (const auto& kv : extra) l.push_back(kv);
    return l;
  };

  for (const auto& [kind, count] : sched_events) {
    reg.set_counter("eesmr_prof_sched_events_total",
                    "Scheduler events fired, by event kind",
                    with({{"kind", kind}}), static_cast<double>(count));
  }
  for (const auto& [key, count] : crypto_ops) {
    reg.set_counter("eesmr_prof_crypto_ops_total",
                    "Crypto operations by component, op and call site",
                    with({{"component", key[0]}, {"op", key[1]},
                          {"site", key[2]}}),
                    static_cast<double>(count));
  }
  for (const auto& [key, bytes] : codec_bytes) {
    reg.set_counter("eesmr_prof_codec_bytes_total",
                    "Message bytes encoded/decoded by component and stream",
                    with({{"component", key[0]}, {"dir", key[1]},
                          {"stream", key[2]}}),
                    static_cast<double>(bytes));
  }
  reg.set_counter("eesmr_prof_early_drops_total",
                  "Known-bad flood frames rejected before a metered verify",
                  base, static_cast<double>(early_drops));
  // Cache families only when a cluster run recorded them, so hand-built
  // snapshots keep their exposition unchanged.
  if (pipeline.any()) {
    const std::pair<const char*, std::uint64_t> memo[] = {
        {"hit", pipeline.join_hits}, {"wasted", pipeline.wasted}};
    for (const auto& [event, v] : memo) {
      reg.set_counter("eesmr_prof_verify_memo_total",
                      "Signature-verdict memo events",
                      with({{"event", event}}), static_cast<double>(v));
    }
    reg.set_counter("eesmr_prof_sig_cache_hits_total",
                    "Metered tally re-verifications skipped by the "
                    "verified-signature cache",
                    base, static_cast<double>(pipeline.sig_cache_hits));
    reg.set_counter("eesmr_prof_bytes_copy_saved_total",
                    "Frame and payload bytes the zero-copy network path "
                    "did not copy",
                    base, static_cast<double>(pipeline.bytes_copy_saved));
  }
  // Host families only when host timing actually ran: their absence is
  // the zero-overhead guarantee the tests pin.
  for (const auto& [label, s] : host_scopes) {
    reg.set_counter("eesmr_prof_host_scope_calls_total",
                    "Host wall-clock scope invocations (only with "
                    "host timing on)",
                    with({{"label", label}}), static_cast<double>(s.count));
    const double mean = s.count == 0 ? 0.0 : s.total_ms / static_cast<double>(
                                                              s.count);
    const std::pair<const char*, double> stats[] = {
        {"min", s.min_ms}, {"mean", mean}, {"max", s.max_ms}};
    for (const auto& [stat, v] : stats) {
      reg.set_gauge("eesmr_prof_host_scope_ms",
                    "Host wall-clock per scope label (only with "
                    "host timing on)",
                    with({{"label", label}, {"stat", stat}}), v);
    }
  }
  for (const auto& r : requests) {
    const std::string client = std::to_string(r.client);
    const std::string req = std::to_string(r.req_id);
    for (const auto& [stream, bm] : r.streams) {
      reg.set_counter("eesmr_prof_request_stream_bytes",
                      "Frame bytes attributed to one sampled request, "
                      "per stream",
                      with({{"client", client}, {"req_id", req},
                            {"stream", stream}}),
                      static_cast<double>(bm.first));
      reg.set_gauge("eesmr_prof_request_stream_mj",
                    "One-hop send+recv energy attributed to one sampled "
                    "request, per stream (mJ)",
                    with({{"client", client}, {"req_id", req},
                          {"stream", stream}}),
                    bm.second);
    }
  }
}

void Profiler::count_crypto(const char* component, const char* op,
                            const char* site) {
  for (CryptoTally& t : crypto_tallies_) {
    if (t.site == site && t.op == op && t.component == component) {
      ++t.count;
      return;
    }
  }
  crypto_tallies_.push_back({component, op, site, 1});
}

void Profiler::count_codec(const char* component, const char* dir,
                           energy::Stream s, std::size_t bytes) {
  for (CodecTally& t : codec_tallies_) {
    if (t.stream == s && t.dir == dir && t.component == component) {
      t.bytes += bytes;
      return;
    }
  }
  codec_tallies_.push_back({component, dir, s, bytes});
}

void Profiler::record_scope(const char* label, double ms) {
  HostScopeStats& s = snap_.host_scopes[label];
  if (s.count == 0 || ms < s.min_ms) s.min_ms = ms;
  if (s.count == 0 || ms > s.max_ms) s.max_ms = ms;
  s.total_ms += ms;
  ++s.count;
}

bool Profiler::sample_request(std::uint64_t client, std::uint64_t req_id) {
  if (sample_order_.size() >= samples_target_) {
    return is_sampled(client, req_id);
  }
  const auto key = std::make_pair(client, req_id);
  if (sampled_.count(key) != 0) return true;
  sampled_[key];  // claim the slot with an empty stream table
  sample_order_.push_back(key);
  return true;
}

bool Profiler::is_sampled(std::uint64_t client, std::uint64_t req_id) const {
  return sampled_.count(std::make_pair(client, req_id)) != 0;
}

void Profiler::attribute(std::uint64_t client, std::uint64_t req_id,
                         energy::Stream s, std::size_t frame_bytes,
                         std::uint64_t weight, std::uint64_t total_weight) {
  const auto it = sampled_.find(std::make_pair(client, req_id));
  if (it == sampled_.end() || total_weight == 0) return;
  const double share =
      static_cast<double>(weight) / static_cast<double>(total_weight);
  const double frame_mj = energy::send_energy_mj(medium_, frame_bytes) +
                          energy::recv_energy_mj(medium_, frame_bytes);
  auto& [bytes, mj] = it->second[energy::stream_name(s)];
  bytes += frame_bytes * weight / total_weight;
  mj += frame_mj * share;
}

Snapshot Profiler::snapshot() const {
  Snapshot out = snap_;
  for (const CryptoTally& t : crypto_tallies_) {
    out.crypto_ops[{t.component, t.op, t.site}] += t.count;
  }
  for (const CodecTally& t : codec_tallies_) {
    out.codec_bytes[{t.component, t.dir, energy::stream_name(t.stream)}] +=
        t.bytes;
  }
  out.requests.reserve(sample_order_.size());
  for (const auto& key : sample_order_) {
    Snapshot::RequestEnergy r;
    r.client = key.first;
    r.req_id = key.second;
    r.streams = sampled_.at(key);
    out.requests.push_back(std::move(r));
  }
  return out;
}

}  // namespace eesmr::prof
