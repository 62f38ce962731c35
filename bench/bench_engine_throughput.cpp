// Engine-throughput trajectory bench: how much simulation the engine
// does per simulated second, measured with the deterministic profiler
// (src/obs/prof.hpp) across protocol × cluster size × offered load.
//
// The default columns are pure functions of the simulation — scheduler
// events fired, metered signature verifications, encoded wire bytes —
// so the committed baseline under bench/baselines/ gates them in CI via
// tools/bench_diff: a PR that silently doubles the events or bytes the
// engine burns per commit shows up as a trajectory regression, not as
// an unexplained wall-clock slowdown three PRs later.
#include <string>
#include <vector>

#include "src/exp/experiment.hpp"
#include "src/exp/run_helpers.hpp"
#include "src/harness/cluster.hpp"

using namespace eesmr;
using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;

namespace {

std::uint64_t sum_sched_events(const prof::Snapshot& s) {
  std::uint64_t total = 0;
  for (const auto& [kind, count] : s.sched_events) total += count;
  return total;
}

std::uint64_t sum_crypto(const prof::Snapshot& s, const std::string& op) {
  std::uint64_t total = 0;
  for (const auto& [key, count] : s.crypto_ops) {
    if (key[1] == op) total += count;
  }
  return total;
}

std::uint64_t sum_codec(const prof::Snapshot& s, const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& [key, bytes] : s.codec_bytes) {
    if (key[1] == dir) total += bytes;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Experiment ex("bench_engine_throughput",
                     "simulator engine throughput trajectory (profiler "
                     "counters per simulated second)",
                     argc, argv, /*default_seed=*/11);

  const sim::Duration run_time =
      ex.smoke() ? sim::seconds(5) : sim::seconds(30);
  const std::vector<Protocol> protocols = {Protocol::kEesmr,
                                           Protocol::kSyncHotStuff};
  const std::vector<std::size_t> sizes = {4, 7};

  exp::Grid grid;
  grid.axis("protocol", {"EESMR", "SyncHS"});
  grid.axis("n", {"n4", "n7"});
  grid.axis("load", {"closed_w4", "open_100rps"});

  exp::Report& rep = ex.run("engine_throughput", grid,
                            [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    cfg.protocol = protocols[c.at("protocol")];
    cfg.n = sizes[c.at("n")];
    cfg.f = (cfg.n - 1) / 2;
    cfg.seed = c.seed;
    cfg.batch_size = 16;
    cfg.clients = 2;
    if (c.label("load") == "closed_w4") {
      cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
      cfg.workload.outstanding = 4;
    } else {
      cfg.workload.mode = client::WorkloadSpec::Mode::kOpenLoop;
      cfg.workload.rate_per_sec = 100.0;
    }
    exp::prepare(c, cfg);

    harness::Cluster cluster(cfg);
    const RunResult r = cluster.run_for(run_time);
    exp::observe(c, r);
    if (!r.safety_ok()) std::fprintf(stderr, "SAFETY VIOLATION\n");

    const double sim_s = sim::to_seconds(r.end_time);
    const std::uint64_t events = sum_sched_events(r.prof);
    const std::uint64_t verifies = sum_crypto(r.prof, "verify");
    const std::uint64_t encoded = sum_codec(r.prof, "encode");
    exp::MetricRow row;
    row.set("sim_events", events);
    row.set("crypto_verifies", verifies);
    row.set("bytes_encoded", encoded);
    row.set("sim_seconds", sim_s);
    row.set("events_per_sim_s", sim_s > 0 ? events / sim_s : 0);
    row.set("verifies_per_sim_s", sim_s > 0 ? verifies / sim_s : 0);
    row.set("bytes_enc_per_sim_s", sim_s > 0 ? encoded / sim_s : 0);
    row.set("commits", r.min_committed());
    row.set("accepted", r.requests_accepted);
    // Cache trajectory (deterministic, baseline-gated): replica checks
    // answered by the cluster's verdict memo, metered re-verifies
    // skipped by the verified-signature cache, and bytes the zero-copy
    // network path did not copy.
    row.set("spec_join_hits", r.prof.pipeline.join_hits);
    row.set("sig_cache_hits", r.prof.pipeline.sig_cache_hits);
    row.set("bytes_copy_saved", r.prof.pipeline.bytes_copy_saved);
    return row;
  });
  rep.print_table(1);

  ex.note("deterministic engine-throughput trajectory: scheduler events, "
          "metered verifies and encoded bytes per simulated second "
          "(baseline-gated)");
  return ex.finish();
}
