// Deterministic-profiler tests (src/obs/prof.hpp): kind-tagged
// scheduler accounting, byte-identical eesmr_prof_* exports and flow
// traces at any runner thread count, the zero-overhead contract of the
// opt-in host timing layer, per-request energy attribution staying a
// lower bound of the run's stream totals, and the garbage-flood early
// drop filter.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/adversary/spec.hpp"
#include "src/exp/run_helpers.hpp"
#include "src/exp/runner.hpp"
#include "src/harness/checkers.hpp"
#include "src/harness/cluster.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/prof.hpp"
#include "src/obs/trace.hpp"

namespace eesmr {
namespace {

using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;

ClusterConfig client_cfg(Protocol p, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.protocol = p;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = seed;
  cfg.clients = 2;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Scheduler kind accounting
// ---------------------------------------------------------------------------

TEST(Prof, SchedulerKindCountsSumToProcessed) {
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 5);
  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(10, sim::seconds(60));
  EXPECT_GE(r.requests_accepted, 10u);

  std::uint64_t by_kind = 0;
  for (const auto& [kind, count] : r.prof.sched_events) {
    EXPECT_FALSE(kind.empty());
    EXPECT_GT(count, 0u);
    by_kind += count;
  }
  EXPECT_EQ(by_kind, cluster.scheduler().processed());
  // The protocol paths are tagged, not lumped into "other": a client
  // run exercises at least delivery and commit timers.
  const auto has = [&](const char* kind) {
    for (const auto& [k, c] : r.prof.sched_events) {
      if (k == kind) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("net_deliver"));
  EXPECT_TRUE(has("commit_timer"));
}

// ---------------------------------------------------------------------------
// Byte-identical exports at any --threads N
// ---------------------------------------------------------------------------

/// Run a 2-protocol grid through the deterministic-parallel runner and
/// return {concatenated registry text, chrome trace json} — the exact
/// artifacts --prom-out / --trace-out serialize.
std::pair<std::string, std::string> run_profiled_grid(std::size_t threads) {
  exp::Grid grid;
  grid.axis("protocol", {"EESMR", "SyncHS"});
  exp::RunnerOptions ro;
  ro.threads = threads;
  ro.seed = 99;
  ro.trace_requests = 2;
  std::vector<exp::RunArtifacts> slots;
  ro.artifacts = &slots;
  ro.collect_registry = true;
  ro.collect_trace = true;
  (void)exp::run_matrix(grid, [&](const exp::RunContext& c) {
    ClusterConfig cfg = client_cfg(c.label("protocol") == "EESMR"
                                       ? Protocol::kEesmr
                                       : Protocol::kSyncHotStuff,
                                   c.seed);
    const RunResult r = exp::run_steady(c, cfg, 12);
    exp::MetricRow row;
    row.set("commits", r.min_committed());
    return row;
  }, ro);

  std::string prom;
  exp::Json events = exp::Json::array();
  int pid = 1;
  for (exp::RunArtifacts& s : slots) {
    prom += s.registry.text();
    pid = s.tracer.append_chrome(events, pid, "run ");
  }
  return {prom, obs::Tracer::chrome_document(std::move(events)).pretty()};
}

TEST(Prof, ExportsByteIdenticalAcrossRunnerThreads) {
  const auto [prom1, trace1] = run_profiled_grid(1);
  EXPECT_NE(prom1.find("eesmr_prof_sched_events_total"), std::string::npos);
  EXPECT_NE(prom1.find("eesmr_prof_crypto_ops_total"), std::string::npos);
  EXPECT_NE(prom1.find("eesmr_prof_codec_bytes_total"), std::string::npos);
  EXPECT_NE(prom1.find("eesmr_prof_request_stream_mj"), std::string::npos);
  EXPECT_NE(trace1.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(trace1.find("\"ph\": \"f\""), std::string::npos);
  for (const std::size_t threads : {4u, 8u}) {
    const auto [prom, trace] = run_profiled_grid(threads);
    EXPECT_EQ(prom, prom1) << "threads=" << threads;
    EXPECT_EQ(trace, trace1) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Request-scoped causal tracing
// ---------------------------------------------------------------------------

TEST(Prof, SampledRequestsFlowSubmitToAccept) {
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 21);
  cfg.trace_requests = 3;
  obs::Tracer tracer;
  cfg.tracer = &tracer;
  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(12, sim::seconds(60));
  EXPECT_GE(r.requests_accepted, 12u);

  ASSERT_EQ(r.prof.requests.size(), 3u);
  for (const auto& req : r.prof.requests) {
    // Every sampled request saw its request frame and its replies.
    EXPECT_TRUE(req.streams.count("request")) << req.req_id;
    EXPECT_TRUE(req.streams.count("reply")) << req.req_id;
    for (const auto& [stream, acc] : req.streams) {
      EXPECT_GT(acc.first, 0u) << stream;
      EXPECT_GT(acc.second, 0.0) << stream;
    }
  }

  // The trace carries one full flow per sampled request: begin at
  // submit, steps along the pipeline, end at accept; plus the 1us
  // anchor slices the arrows bind to.
  exp::Json events = exp::Json::array();
  tracer.append_chrome(events, 1, "t ");
  const std::string text = events.pretty();
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const exp::Json& e = events.at(i);
    if (!e.contains("ph")) continue;
    const std::string ph = e.at("ph").as_string();
    if (ph == "s") ++begins;
    if (ph == "f") ++ends;
    if (ph == "s" || ph == "t" || ph == "f") {
      EXPECT_TRUE(e.contains("id"));
      EXPECT_EQ(e.at("cat").as_string(), "request");
    }
  }
  EXPECT_EQ(begins, 3u);
  EXPECT_EQ(ends, 3u);
  EXPECT_NE(text.find("\"pooled\""), std::string::npos);
  EXPECT_NE(text.find("\"commit\""), std::string::npos);
  EXPECT_NE(text.find("\"bp\""), std::string::npos);  // binding point
}

// Attribution is a per-frame share of one-hop send+recv energy, so the
// per-request totals are a lower bound of the run's per-stream radio
// energy (which also counts relaying and unsampled traffic).
TEST(Prof, RequestEnergyIsLowerBoundOfStreamTotals) {
  for (Protocol p : {Protocol::kEesmr, Protocol::kSyncHotStuff}) {
    ClusterConfig cfg = client_cfg(p, 77);
    cfg.trace_requests = 4;
    harness::Cluster cluster(cfg);
    const RunResult r = cluster.run_until_accepted(16, sim::seconds(60));
    ASSERT_EQ(r.prof.requests.size(), 4u);

    for (std::size_t s = 0; s < energy::kNumStreams; ++s) {
      const auto stream = static_cast<energy::Stream>(s);
      double attributed_mj = 0;
      for (const auto& req : r.prof.requests) {
        const auto it = req.streams.find(energy::stream_name(stream));
        if (it != req.streams.end()) attributed_mj += it->second.second;
      }
      const energy::StreamStats st = r.stream_totals_all(stream);
      EXPECT_LE(attributed_mj, st.send_mj + st.recv_mj + 1e-9)
          << harness::protocol_name(p) << " stream "
          << energy::stream_name(stream);
    }
  }
}

// ---------------------------------------------------------------------------
// Crypto and codec tallies
// ---------------------------------------------------------------------------

TEST(Prof, SameSiteTextThroughDistinctPointersMergesIntoOneRow) {
  // The tallies are keyed by the callers' pointers; copies of the text
  // stand in for the same literal from another translation unit.
  const std::string replica = "replica";
  const std::string verify = "verify";
  const std::string vote = "vote";
  const std::string encode = "encode";
  prof::Profiler p;
  p.count_crypto("replica", "verify", "vote");
  p.count_crypto("replica", "sign", "proposal");
  p.count_crypto(replica.c_str(), verify.c_str(), vote.c_str());
  p.count_crypto("client", "sign", "request");
  p.count_crypto("replica", verify.c_str(), "vote");
  p.count_codec("replica", "encode", energy::Stream::kVote, 100);
  p.count_codec("replica", "decode", energy::Stream::kProposal, 0);
  p.count_codec(replica.c_str(), encode.c_str(), energy::Stream::kVote, 20);
  p.count_codec("client", "encode", energy::Stream::kRequest, 7);

  const prof::Snapshot snap = p.snapshot();
  using Key = std::array<std::string, 3>;
  EXPECT_EQ(snap.crypto_ops, (std::map<Key, std::uint64_t>{
                                 {{"client", "sign", "request"}, 1},
                                 {{"replica", "sign", "proposal"}, 1},
                                 {{"replica", "verify", "vote"}, 3}}));
  EXPECT_EQ(snap.codec_bytes, (std::map<Key, std::uint64_t>{
                                  {{"client", "encode", "request"}, 7},
                                  {{"replica", "decode", "proposal"}, 0},
                                  {{"replica", "encode", "vote"}, 120}}));

  // One exposition row per key, ordered by (component, op|dir, site|stream).
  obs::Registry reg;
  snap.to_registry(reg, {});
  std::vector<std::string> rows;
  std::size_t pos = 0;
  const std::string text = reg.text();
  while (pos < text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::string line = text.substr(pos, end - pos);
    if (line.rfind("eesmr_prof_crypto_ops_total", 0) == 0 ||
        line.rfind("eesmr_prof_codec_bytes_total", 0) == 0) {
      rows.push_back(line);
    }
    pos = end + 1;
  }
  EXPECT_EQ(rows, (std::vector<std::string>{
                      "eesmr_prof_crypto_ops_total{component=\"client\","
                      "op=\"sign\",site=\"request\"} 1",
                      "eesmr_prof_crypto_ops_total{component=\"replica\","
                      "op=\"sign\",site=\"proposal\"} 1",
                      "eesmr_prof_crypto_ops_total{component=\"replica\","
                      "op=\"verify\",site=\"vote\"} 3",
                      "eesmr_prof_codec_bytes_total{component=\"client\","
                      "dir=\"encode\",stream=\"request\"} 7",
                      "eesmr_prof_codec_bytes_total{component=\"replica\","
                      "dir=\"decode\",stream=\"proposal\"} 0",
                      "eesmr_prof_codec_bytes_total{component=\"replica\","
                      "dir=\"encode\",stream=\"vote\"} 120"}));
}

// ---------------------------------------------------------------------------
// Host timing: strictly opt-in
// ---------------------------------------------------------------------------

TEST(Prof, DisabledHostTimingExportsNoHostFamilies) {
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 13);
  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(8, sim::seconds(60));
  EXPECT_TRUE(r.prof.host_scopes.empty());
  obs::Registry reg;
  r.to_registry(reg);
  const std::string text = reg.text();
  EXPECT_EQ(text.find("eesmr_prof_host"), std::string::npos);
  // The deterministic families are there regardless.
  EXPECT_NE(text.find("eesmr_prof_sched_events_total"), std::string::npos);
  EXPECT_NE(text.find("eesmr_prof_early_drops_total"), std::string::npos);
}

TEST(Prof, EnabledHostTimingRecordsScopes) {
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 13);
  cfg.host_timing = true;
  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(8, sim::seconds(60));
  EXPECT_FALSE(r.prof.host_scopes.empty());
  const auto it = r.prof.host_scopes.find("replica.on_deliver");
  ASSERT_NE(it, r.prof.host_scopes.end());
  EXPECT_GT(it->second.count, 0u);
  EXPECT_GE(it->second.max_ms, it->second.min_ms);
  obs::Registry reg;
  r.to_registry(reg);
  EXPECT_NE(reg.text().find("eesmr_prof_host_scope_calls_total"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Garbage-signature flood: probabilistic early drop
// ---------------------------------------------------------------------------

TEST(Prof, GarbageFloodEngagesEarlyDropAfterThreshold) {
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 41);
  adversary::AdversarySpec::ByzClient bc;
  bc.kind = adversary::AdversarySpec::ByzClient::Kind::kGarbageFlood;
  bc.interval = sim::milliseconds(10);
  cfg.adversary.clients.push_back(bc);
  cfg.workload.max_requests = 20;

  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(40, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GT(r.byz_requests_sent, 50u);

  // After ~3 consecutive failures per replica the filter engages; the
  // bulk of the flood is then dropped before a metered verification
  // (only the deterministic 1-in-16 re-admissions still pay).
  EXPECT_GT(r.prof.early_drops, 0u);
  std::uint64_t replica_drops = 0;
  for (NodeId i = 0; i < 4; ++i) {
    replica_drops += cluster.replica(i).intake().early_drops();
  }
  EXPECT_EQ(replica_drops, r.prof.early_drops);
  // The honest workload is unaffected.
  EXPECT_GE(r.requests_accepted, 40u);

  obs::Registry reg;
  r.to_registry(reg);
  EXPECT_EQ(reg.value("eesmr_prof_early_drops_total"),
            static_cast<double>(r.prof.early_drops));
}

// Without an attack the filter never arms (no false positives).
TEST(Prof, NoEarlyDropsOnHonestRuns) {
  ClusterConfig cfg = client_cfg(Protocol::kSyncHotStuff, 43);
  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(12, sim::seconds(60));
  EXPECT_GE(r.requests_accepted, 12u);
  EXPECT_EQ(r.prof.early_drops, 0u);
}

// ---------------------------------------------------------------------------
// Workload-aware liveness verdicts
// ---------------------------------------------------------------------------

TEST(Liveness, IdleTailAfterLoadDrainsDoesNotCountAsStall) {
  harness::LivenessChecker lc;
  lc.sample(0, 0);
  lc.sample(sim::milliseconds(10), 1);  // advance at 10ms
  // Load runs out; the chain idles for a long time.
  for (int t = 2; t <= 100; ++t) {
    lc.sample(sim::milliseconds(10) * t, 1, /*load_pending=*/false);
  }
  // The idle tail accrues at most one sampling interval, not 990ms.
  EXPECT_LE(lc.max_stall(sim::seconds(1)), sim::milliseconds(10));

  // A real stall WITH pending load still registers in full, even when
  // the load later drains.
  harness::LivenessChecker stalled;
  stalled.sample(0, 0);
  stalled.sample(sim::milliseconds(500), 0);          // stalled, loaded
  stalled.sample(sim::milliseconds(600), 1);          // finally advances
  stalled.sample(sim::milliseconds(610), 1, false);   // then drains
  EXPECT_GE(stalled.max_stall(sim::milliseconds(610)),
            sim::milliseconds(600));
}

// Cluster-level: a finite-budget client run left running long past the
// drain must not report the idle tail as a commit stall.
TEST(Liveness, ClusterIdleChainReportsNoSpuriousStall) {
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 17);
  cfg.workload.max_requests = 5;  // per client; drains almost instantly
  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_for(sim::seconds(30));
  EXPECT_EQ(r.requests_accepted, 10u);
  // The chain idled for ~30 simulated seconds after the last commit;
  // with workload-aware sampling the recorded stall stays at commit-
  // cadence scale instead of absorbing the idle tail.
  EXPECT_LT(r.max_commit_stall, sim::seconds(5));
}

}  // namespace
}  // namespace eesmr
