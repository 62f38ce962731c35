// Deterministic simulator profiler: where do sim events, crypto ops and
// encoded bytes actually go?
//
// Three layers, all always compiled in:
//  - Sim-side counters. Per-kind scheduler event counts (absorbed from
//    sim::Scheduler), per-component crypto op counts split by call site
//    (proposal / vote / checkpoint / request / reply / state transfer /
//    block / sync), and encode/decode byte counts per {component, stream}.
//    Pure functions of the simulation, so they are byte-identical at any
//    `--threads N` and diffable by tools/bench_diff.
//  - Opt-in host wall-clock scopes (RAII prof::Scope) aggregated into
//    count/min/mean/max per label. Behind ClusterConfig::host_timing
//    (perfbench's traced runs); when disabled a Scope never reads the
//    clock and the snapshot exports no host families at all.
//  - Request-scoped causal tracing: sample the first K client requests
//    (`--trace-requests K`), stitch their lifecycle (submit -> pooled ->
//    propose -> vote/certify -> commit -> accept) as Chrome flow events
//    through the obs::Tracer, and attribute per-stream bytes + one-hop
//    send+recv energy (mJ) to each sampled request.
//
// The harness::Cluster owns one Profiler per run and wires it into
// replicas and clients next to the Tracer; RunResult carries the final
// Snapshot, which RunResult::to_registry exports as `eesmr_prof_*`
// metric families.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/energy/cost_model.hpp"
#include "src/energy/meter.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace eesmr::prof {

/// Aggregated host wall-clock stats for one scope label.
struct HostScopeStats {
  std::uint64_t count = 0;
  double total_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

/// Immutable result of one profiled run. Default-constructed (empty())
/// for hand-built RunResults, so to_registry stays a no-op for them.
struct Snapshot {
  /// Scheduler events fired, by kind tag (sum == Scheduler::processed()).
  std::vector<std::pair<std::string, std::uint64_t>> sched_events;
  /// {component, op, site} -> count. op is sign/verify/hash.
  std::map<std::array<std::string, 3>, std::uint64_t> crypto_ops;
  /// {component, dir, stream} -> bytes. dir is encode/decode.
  std::map<std::array<std::string, 3>, std::uint64_t> codec_bytes;
  /// Garbage-signature frames rejected before a metered verify.
  std::uint64_t early_drops = 0;

  /// Verification-cache and zero-copy counters, absorbed at snapshot
  /// time from the cluster's crypto::VerifyMemo, the replicas'
  /// verified-signature caches and net::Network.
  struct Pipeline {
    std::uint64_t join_hits = 0;        ///< checks answered by the verdict memo
    std::uint64_t wasted = 0;           ///< memo entries evicted without a hit
    std::uint64_t sig_cache_hits = 0;   ///< metered tally re-verifies skipped
    std::uint64_t bytes_copy_saved = 0; ///< frame/payload bytes not copied
    [[nodiscard]] bool any() const {
      return join_hits != 0 || wasted != 0 || sig_cache_hits != 0 ||
             bytes_copy_saved != 0;
    }
  };
  Pipeline pipeline;

  /// Host wall-clock scopes; empty unless host timing was enabled.
  std::map<std::string, HostScopeStats> host_scopes;

  /// Per-sampled-request attribution: bytes and one-hop send+recv mJ
  /// spent on that request's frames, per stream.
  struct RequestEnergy {
    std::uint64_t client = 0;
    std::uint64_t req_id = 0;
    /// stream name -> {bytes, mJ}
    std::map<std::string, std::pair<std::uint64_t, double>> streams;
  };
  std::vector<RequestEnergy> requests;

  [[nodiscard]] bool empty() const;
  /// Export as eesmr_prof_* families (host families only when host
  /// scopes were recorded).
  void to_registry(obs::Registry& reg, const obs::Labels& base) const;
};

/// One run's profiler. All counting paths accept a null Profiler* at the
/// call site (instrumentation is `if (prof_) prof_->...`), so components
/// built outside a Cluster cost nothing.
class Profiler {
 public:
  // -- deterministic sim-side counters ----------------------------------------
  void count_crypto(const char* component, const char* op, const char* site);
  void count_codec(const char* component, const char* dir, energy::Stream s,
                   std::size_t bytes);
  void count_early_drop() { ++snap_.early_drops; }

  // -- host wall-clock scopes (opt-in) ----------------------------------------
  void set_host_timing(bool on) { host_timing_ = on; }
  [[nodiscard]] bool host_timing() const { return host_timing_; }
  void record_scope(const char* label, double ms);

  // -- request-scoped causal tracing ------------------------------------------
  /// Sample the first `k` submitted client requests.
  void set_request_samples(std::size_t k) { samples_target_ = k; }
  /// True once any request has been sampled (cheap gate for hot paths).
  [[nodiscard]] bool tracing_requests() const { return !sampled_.empty(); }
  /// Called at submit time; claims a sample slot if one remains.
  bool sample_request(std::uint64_t client, std::uint64_t req_id);
  [[nodiscard]] bool is_sampled(std::uint64_t client,
                                std::uint64_t req_id) const;
  /// Stable Chrome flow id for a sampled request.
  [[nodiscard]] static std::uint64_t flow_id(std::uint64_t client,
                                             std::uint64_t req_id) {
    return (client << 20U) | (req_id & 0xFFFFFU);
  }
  /// Credit `weight/total_weight` of one frame (its bytes and its one-hop
  /// send+recv energy on the run's medium) to a sampled request. Block
  /// frames carrying many commands pass the command's byte share; request
  /// and reply frames pass 1/1. No-op for unsampled requests.
  void attribute(std::uint64_t client, std::uint64_t req_id, energy::Stream s,
                 std::size_t frame_bytes, std::uint64_t weight = 1,
                 std::uint64_t total_weight = 1);

  void set_medium(energy::Medium m) { medium_ = m; }
  [[nodiscard]] energy::Medium medium() const { return medium_; }
  void set_tracer(obs::Tracer* t) { tracer_ = t; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Assemble the final snapshot (sampled-request table in sampling order).
  [[nodiscard]] Snapshot snapshot() const;

 private:
  /// Per-call-site tallies keyed by the callers' literal pointers,
  /// scanned linearly (a few dozen distinct sites). snapshot() merges
  /// them by value into the string-keyed maps, so the same text passed
  /// through different pointers still yields one row.
  struct CryptoTally {
    const char* component;
    const char* op;
    const char* site;
    std::uint64_t count;
  };
  struct CodecTally {
    const char* component;
    const char* dir;
    energy::Stream stream;
    std::uint64_t bytes;
  };

  Snapshot snap_;
  std::vector<CryptoTally> crypto_tallies_;
  std::vector<CodecTally> codec_tallies_;
  bool host_timing_ = false;
  std::size_t samples_target_ = 0;
  energy::Medium medium_ = energy::Medium::kWifi;
  obs::Tracer* tracer_ = nullptr;
  /// (client, req_id) -> stream -> {bytes, mJ}; sampling order kept in
  /// sample_order_ so the snapshot lists requests as they were taken.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::map<std::string, std::pair<std::uint64_t, double>>>
      sampled_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sample_order_;
};

/// RAII host wall-clock scope. Reads the clock only when the profiler
/// exists and host timing is on — zero overhead otherwise.
class Scope {
 public:
  Scope(Profiler* p, const char* label)
      : prof_(p != nullptr && p->host_timing() ? p : nullptr), label_(label) {
    if (prof_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~Scope() {
    if (prof_ != nullptr) {
      const auto end = std::chrono::steady_clock::now();
      prof_->record_scope(
          label_,
          std::chrono::duration<double, std::milli>(end - start_).count());
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Profiler* prof_;
  const char* label_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace eesmr::prof
