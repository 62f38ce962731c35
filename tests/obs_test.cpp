// Observability-layer tests: Prometheus text-exposition conformance
// (label escaping, stable ordering, the +Inf bucket, counter
// monotonicity), the registry-matches-record cross-check, Chrome trace
// validity, and the byte-identical --prom-out/--trace-out contract
// across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/exp/json.hpp"
#include "src/exp/record.hpp"
#include "src/exp/run_helpers.hpp"
#include "src/exp/runner.hpp"
#include "src/harness/cluster.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/rng.hpp"

namespace eesmr {
namespace {

using exp::Json;
using obs::Histogram;
using obs::Labels;
using obs::Registry;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

TEST(Metrics, CounterIsMonotonic) {
  Registry reg;
  reg.set_counter("eesmr_test_total", "help", {}, 3.5);
  EXPECT_DOUBLE_EQ(reg.value("eesmr_test_total"), 3.5);
  // A negative total is rejected and registers nothing.
  EXPECT_THROW(reg.set_counter("eesmr_other_total", "h", {}, -4),
               std::invalid_argument);
  EXPECT_EQ(reg.find("eesmr_other_total"), nullptr);
}

TEST(Metrics, HistogramBucketsAndInfOverflow) {
  Histogram h({1.0, 5.0, 10.0});
  h.observe(0.5);   // le=1
  h.observe(1.0);   // le=1 (inclusive upper bound)
  h.observe(7.0);   // le=10
  h.observe(99.0);  // +Inf overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.cumulative(2), 3u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.5);

  EXPECT_THROW(Histogram({5.0, 1.0}), std::invalid_argument);
  Histogram other({1.0, 2.0});
  EXPECT_THROW(h.merge(other), std::invalid_argument);
  Histogram same({1.0, 5.0, 10.0});
  same.observe(3.0);
  h.merge(same);
  EXPECT_EQ(h.count(), 5u);
}

TEST(Metrics, NameAndLabelValidation) {
  Registry reg;
  EXPECT_THROW(reg.set_gauge("2bad", "h", {}, 1), std::invalid_argument);
  EXPECT_THROW(reg.set_gauge("has space", "h", {}, 1), std::invalid_argument);
  EXPECT_THROW(reg.set_gauge("ok_name", "h", {{"0bad", "v"}}, 1),
               std::invalid_argument);
  // "le" is reserved for histogram bucket series.
  EXPECT_THROW(reg.set_gauge("ok_name", "h", {{"le", "1"}}, 1),
               std::invalid_argument);
  EXPECT_THROW(reg.set_histogram("ok_hist", "h", {{"le", "1"}}, Histogram{}),
               std::invalid_argument);
  // Re-registering a name with a different kind or help is a bug.
  reg.set_gauge("eesmr_x", "first help", {}, 1);
  EXPECT_THROW(reg.set_counter("eesmr_x", "first help", {}, 1),
               std::invalid_argument);
  EXPECT_THROW(reg.set_histogram("eesmr_x", "first help", {}, Histogram{}),
               std::invalid_argument);
  EXPECT_THROW(reg.set_gauge("eesmr_x", "second help", {}, 1),
               std::invalid_argument);
}

TEST(Metrics, ValueThrowsOnMissingSample) {
  Registry reg;
  reg.set_gauge("eesmr_x", "h", {{"node", "0"}}, 1);
  EXPECT_THROW((void)reg.value("eesmr_missing"), std::out_of_range);
  EXPECT_THROW((void)reg.value("eesmr_x", {{"node", "7"}}), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Text exposition
// ---------------------------------------------------------------------------

TEST(Metrics, TextExpositionFormat) {
  Registry reg;
  reg.set_counter("eesmr_msgs_total", "Messages sent", {{"node", "0"}}, 7);
  reg.set_counter("eesmr_msgs_total", "Messages sent", {{"node", "1"}}, 9);
  reg.set_gauge("eesmr_energy_mj", "Energy", {}, 1.5);
  const std::string text = reg.text();
  EXPECT_NE(text.find("# HELP eesmr_msgs_total Messages sent\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE eesmr_msgs_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("eesmr_msgs_total{node=\"0\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("eesmr_msgs_total{node=\"1\"} 9\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eesmr_energy_mj gauge\n"), std::string::npos);
  EXPECT_NE(text.find("eesmr_energy_mj 1.5\n"), std::string::npos);
}

TEST(Metrics, TextExpositionEscapesLabelValues) {
  Registry reg;
  reg.set_gauge("eesmr_g", "h", {{"path", "a\\b\"c\nd"}}, 1);
  const std::string text = reg.text();
  EXPECT_NE(text.find("eesmr_g{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos)
      << text;
  // HELP strings escape backslash and newline.
  Registry reg2;
  reg2.set_gauge("eesmr_h", "line1\nline2\\tail", {}, 1);
  EXPECT_NE(reg2.text().find("# HELP eesmr_h line1\\nline2\\\\tail\n"),
            std::string::npos)
      << reg2.text();
}

TEST(Metrics, TextExpositionOrderIsRegistrationOrder) {
  // Families expose in registration order (not sorted), samples in
  // registration order — the determinism contract.
  Registry reg;
  reg.set_gauge("eesmr_zzz", "h", {}, 1);
  reg.set_gauge("eesmr_aaa", "h", {{"b", "1"}}, 2);
  reg.set_gauge("eesmr_aaa", "h", {{"a", "1"}}, 3);
  const std::string text = reg.text();
  EXPECT_LT(text.find("eesmr_zzz"), text.find("eesmr_aaa"));
  EXPECT_LT(text.find("eesmr_aaa{b=\"1\"}"), text.find("eesmr_aaa{a=\"1\"}"));
  // Two registries fed identically render byte-identical text.
  Registry twin;
  twin.set_gauge("eesmr_zzz", "h", {}, 1);
  twin.set_gauge("eesmr_aaa", "h", {{"b", "1"}}, 2);
  twin.set_gauge("eesmr_aaa", "h", {{"a", "1"}}, 3);
  EXPECT_EQ(twin.text(), text);
}

TEST(Metrics, HistogramExpositionHasCumulativeBucketsAndInf) {
  Histogram h({1.0, 10.0});
  h.observe(0.5);
  h.observe(4.0);
  h.observe(50.0);
  Registry reg;
  reg.set_histogram("eesmr_lat_ms", "Latency", {{"node", "0"}}, h);
  const std::string text = reg.text();
  EXPECT_NE(text.find("# TYPE eesmr_lat_ms histogram\n"), std::string::npos);
  EXPECT_NE(text.find("eesmr_lat_ms_bucket{node=\"0\",le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("eesmr_lat_ms_bucket{node=\"0\",le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("eesmr_lat_ms_bucket{node=\"0\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("eesmr_lat_ms_sum{node=\"0\"} 54.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("eesmr_lat_ms_count{node=\"0\"} 3\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

TEST(Metrics, MergePrependsLabels) {
  Registry run0;
  run0.set_gauge("eesmr_g", "h", {{"node", "0"}}, 1);
  Registry run1;
  run1.set_gauge("eesmr_g", "h", {{"node", "0"}}, 2);
  Registry merged;
  merged.merge(run0, {{"run", "0"}});
  merged.merge(run1, {{"run", "1"}});
  EXPECT_DOUBLE_EQ(merged.value("eesmr_g", {{"run", "0"}, {"node", "0"}}), 1);
  EXPECT_DOUBLE_EQ(merged.value("eesmr_g", {{"run", "1"}, {"node", "0"}}), 2);
}

// ---------------------------------------------------------------------------
// RunResult -> registry cross-check
// ---------------------------------------------------------------------------

harness::RunResult client_run(std::uint64_t seed) {
  harness::ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = seed;
  cfg.clients = 2;
  cfg.checkpoint_interval = 8;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 2;
  harness::Cluster cluster(cfg);
  return cluster.run_for(sim::seconds(8));
}

TEST(Obs, SummaryMatchesRegistryExactly) {
  const harness::RunResult r = client_run(42);
  ASSERT_GT(r.requests_accepted, 0u);

  Registry reg;
  r.to_registry(reg);
  // Registry values equal the direct accessors bit-for-bit (same
  // computation snapshotted, not a parallel plumbing path).
  EXPECT_EQ(reg.value("eesmr_run_total_energy_mj"), r.total_energy_mj());
  EXPECT_EQ(reg.value("eesmr_run_energy_per_block_mj"),
            r.energy_per_block_mj());
  EXPECT_EQ(reg.value("eesmr_run_min_committed"),
            static_cast<double>(r.min_committed()));
  EXPECT_EQ(reg.value("eesmr_run_view_changes_total"),
            static_cast<double>(r.view_changes));
  EXPECT_EQ(reg.value("eesmr_run_requests_accepted_total"),
            static_cast<double>(r.requests_accepted));
  EXPECT_EQ(reg.value("eesmr_run_accepted_per_sec"), r.accepted_per_sec());

  // Per-node and per-stream families carry the same numbers as the
  // RunResult accessors.
  for (std::size_t i = 0; i < r.meters.size(); ++i) {
    EXPECT_EQ(reg.value("eesmr_node_energy_mj", {{"node", std::to_string(i)}}),
              r.meters[i].total_millijoules());
  }
  const energy::StreamStats prop =
      r.stream_totals_all(energy::Stream::kProposal);
  EXPECT_EQ(reg.value("eesmr_stream_send_mj",
                      {{"stream", "proposal"}, {"scope", "all"}}),
            prop.send_mj);
}

/// A run that fills all three optional run-level entries: clients under
/// the aggregate scheme fold acceptance certificates, and one membership
/// event commits a policy block.
harness::RunResult run_with_every_summary_entry() {
  harness::ClusterConfig cfg;
  cfg.n = 5;
  cfg.f = 1;
  cfg.spares = 1;  // node 4 joins
  cfg.seed = 0x10af;
  cfg.cert_scheme = smr::CertScheme::kAggregate;
  cfg.checkpoint_interval = 8;
  cfg.clients = 2;
  cfg.workload.max_requests = 30;
  harness::ClusterConfig::MembershipEvent join;
  join.at = sim::milliseconds(500);
  for (NodeId i = 0; i < 5; ++i) join.policy.signers.push_back({i, 1});
  cfg.membership_events.push_back(join);
  harness::Cluster cluster(cfg);
  return cluster.run_until_commits(30, sim::seconds(60));
}

/// Sample lines of a text exposition whose family starts with `prefix`:
/// `{family, labels, value}`, labels as rendered ("" or `{...}`).
std::vector<std::tuple<std::string, std::string, double>> exposed(
    const Registry& reg, const std::string& prefix) {
  std::vector<std::tuple<std::string, std::string, double>> out;
  std::istringstream in(reg.text());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    const std::size_t name_end = std::min(line.find('{'), space);
    out.emplace_back(line.substr(0, name_end),
                     line.substr(name_end, space - name_end),
                     std::stod(line.substr(space + 1)));
  }
  return out;
}

double number(const Json& j) {
  return j.type() == Json::Type::kBool ? (j.as_bool() ? 1 : 0)
                                       : j.as_double();
}

// The registry and the BENCH_*.json record name one list of run-level
// and footprint metrics: each side has exactly the other's entries, with
// the same values.
TEST(Obs, RegistryAndRecordListTheSameMetrics) {
  const harness::RunResult r = run_with_every_summary_entry();
  ASSERT_NE(r.membership_changes, 0u);
  ASSERT_NE(r.membership_generation, 0u);
  ASSERT_NE(r.acceptance_certs, 0u);
  Registry reg;
  r.to_registry(reg);
  const Json doc = exp::run_result_json(r);

  const Json& summary = doc.at("summary");
  std::size_t run_samples = 0;
  for (const auto& [family, labels, value] : exposed(reg, "eesmr_run_")) {
    ++run_samples;
    EXPECT_EQ(labels, "") << family;
    std::string key = family.substr(std::string("eesmr_run_").size());
    if (key == "end_time_seconds") key = "end_time_s";
    if (key.ends_with("_total")) key.resize(key.size() - 6);
    ASSERT_TRUE(summary.contains(key)) << family;
    EXPECT_EQ(number(summary.at(key)), value) << family;
  }
  EXPECT_EQ(run_samples, summary.size());  // and no summary key unexposed
  EXPECT_TRUE(summary.contains("membership_changes"));
  EXPECT_TRUE(summary.contains("membership_generation"));
  EXPECT_TRUE(summary.contains("acceptance_certs"));

  const Json& fps = doc.at("footprints");
  ASSERT_EQ(fps.size(), r.footprints.size());
  std::size_t footprint_samples = 0, record_entries = 0;
  for (const auto& [family, labels, value] : exposed(reg, "eesmr_footprint_")) {
    const std::string key = family.substr(std::string("eesmr_footprint_").size());
    if (key == "flood_dedup_tail") continue;  // registry-only
    ++footprint_samples;
    const std::size_t node = std::stoul(labels.substr(std::string("{node=\"").size()));
    ASSERT_LT(node, fps.size()) << labels;
    ASSERT_TRUE(fps.at(node).contains(key)) << family;
    EXPECT_EQ(fps.at(node).at(key).as_double(), value) << family << labels;
  }
  for (const Json& fp : fps.items()) record_entries += fp.size();
  EXPECT_EQ(footprint_samples, record_entries);
  EXPECT_GT(record_entries, 0u);
}

TEST(Obs, LatencyHistogramBucketsTrackSamples) {
  const harness::RunResult r = client_run(7);
  ASSERT_GT(r.latency.count(), 0u);
  // Same observations: bucketed count equals the raw-sample count, the
  // bucketed sum equals the sum of the per-sample milliseconds.
  EXPECT_EQ(r.latency.buckets().count(), r.latency.count());
  double sum = 0;
  for (std::uint64_t c : r.latency.buckets().bucket_counts()) {
    sum += static_cast<double>(c);
  }
  EXPECT_EQ(static_cast<std::uint64_t>(sum), r.latency.count());
}

// ---------------------------------------------------------------------------
// Trace layer
// ---------------------------------------------------------------------------

harness::RunResult traced_run(obs::Tracer& tracer, std::uint64_t seed,
                              harness::Protocol protocol) {
  harness::ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = seed;
  cfg.checkpoint_interval = 4;
  cfg.tracer = &tracer;
  harness::Cluster cluster(cfg);
  return cluster.run_until_commits(6, sim::seconds(600));
}

TEST(Trace, CommitPathEventsAreEmitted) {
  for (const harness::Protocol protocol :
       {harness::Protocol::kEesmr, harness::Protocol::kSyncHotStuff}) {
    obs::Tracer tracer;
    const harness::RunResult r = traced_run(tracer, 11, protocol);
    ASSERT_GE(r.min_committed(), 6u);
    ASSERT_FALSE(tracer.empty());
    std::size_t proposes = 0, votes = 0, certifies = 0, commits = 0,
                spans = 0, ends = 0, checkpoints = 0;
    for (const obs::TraceEvent& ev : tracer.events()) {
      if (ev.name == "propose") ++proposes;
      if (ev.name == "vote") ++votes;
      if (ev.name == "certify") ++certifies;
      if (ev.name == "commit") ++commits;
      if (ev.name == "block" && ev.ph == 'b') ++spans;
      if (ev.name == "block" && ev.ph == 'e') ++ends;
      if (ev.name == "checkpoint_taken") ++checkpoints;
    }
    EXPECT_GT(proposes, 0u);
    if (protocol == harness::Protocol::kSyncHotStuff) {
      // Sync HotStuff votes and certifies on the steady path; EESMR's
      // steady state is vote-free by design (the paper's headline), so
      // its vote/certify events only appear during a view change, which
      // an honest run never triggers.
      EXPECT_GT(votes, 0u);
      EXPECT_GT(certifies, 0u);
    }
    EXPECT_GE(commits, 6u);
    EXPECT_GT(spans, 0u);
    EXPECT_GE(spans, ends);  // every closed block span was opened
    EXPECT_GT(ends, 0u);
    EXPECT_GT(checkpoints, 0u);
  }
}

TEST(Trace, ChromeDocumentIsValid) {
  obs::Tracer tracer;
  traced_run(tracer, 3, harness::Protocol::kEesmr);
  Json events = Json::array();
  const int next_pid = tracer.append_chrome(events, 1, "test ");
  EXPECT_GE(next_pid, 2);
  const Json doc = obs::Tracer::chrome_document(std::move(events));
  // Valid JSON document with the Chrome trace shape.
  const Json parsed = Json::parse(doc.pretty());
  ASSERT_TRUE(parsed.contains("traceEvents"));
  EXPECT_EQ(parsed.at("displayTimeUnit").as_string(), "ms");
  const auto& evs = parsed.at("traceEvents").items();
  ASSERT_FALSE(evs.empty());
  // First event names the process (epoch label prefixed).
  EXPECT_EQ(evs[0].at("ph").as_string(), "M");
  EXPECT_EQ(evs[0].at("name").as_string(), "process_name");
  EXPECT_EQ(evs[0].at("args").at("name").as_string().rfind("test ", 0), 0u);
  for (const Json& ev : evs) {
    ASSERT_TRUE(ev.contains("name"));
    ASSERT_TRUE(ev.contains("ph"));
    ASSERT_TRUE(ev.contains("pid"));
    const std::string ph = ev.at("ph").as_string();
    if (ph == "M") continue;
    ASSERT_TRUE(ev.contains("ts"));
    ASSERT_TRUE(ev.contains("tid"));
    if (ph == "i") {
      EXPECT_TRUE(ev.contains("s"));  // instant scope
    } else {
      EXPECT_TRUE(ev.contains("id"));  // async span id
    }
  }
}

// Every node of an epoch shares one Chrome pid, and Chrome pairs async
// events by (pid, cat, name, id): the exported id keeps the n block spans
// of one height, one per node, under n different keys.
TEST(Trace, NodesNeverShareAnAsyncSpanKey) {
  obs::Tracer tracer;
  traced_run(tracer, 3, harness::Protocol::kSyncHotStuff);
  Json events = Json::array();
  tracer.append_chrome(events, 1, "test ");
  std::map<std::string, std::int64_t> owner;  // exported key -> tid
  std::size_t begins = 0;
  for (const Json& ev : events.items()) {
    if (ev.at("ph").as_string() != "b") continue;
    ++begins;
    const std::string key = std::to_string(ev.at("pid").as_int()) + "/" +
                            ev.at("cat").as_string() + "/" +
                            ev.at("name").as_string() + "/" +
                            ev.at("id").as_string();
    const std::int64_t tid = ev.at("tid").as_int();
    EXPECT_EQ(owner.emplace(key, tid).first->second, tid) << key;
  }
  EXPECT_GT(begins, 4u);  // more than one height's worth of block spans
}

// A late joiner whose state transfer is retargeted while in flight: the
// n = 4 run of bench_fig_certsize's smoke grid. Checkpoints stabilize
// faster than a transfer's round trip, so the transfer opened at one
// stable height closes at a higher one.
TEST(Trace, AsyncSpansPairAcrossARetargetedStateTransfer) {
  obs::Tracer tracer;
  harness::ClusterConfig cfg;
  cfg.protocol = harness::Protocol::kSyncHotStuff;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = sim::derive_seed(42, 0);
  cfg.batch_size = 8;
  cfg.clients = 2;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 4;
  cfg.workload.max_requests = 600;
  cfg.checkpoint_interval = 8;
  cfg.late_starts.push_back({3, sim::seconds(2)});
  cfg.tracer = &tracer;
  harness::Cluster cluster(cfg);
  const harness::RunResult r = cluster.run_until_commits(40, sim::seconds(120));
  ASSERT_GE(r.state_transfers, 1u);

  // Chrome pairs an async end with the open begin of the same
  // (process, category, name, id); a node's spans never overlap under
  // one key. Block spans may still be open when the run stops; every
  // recovery span must have closed.
  using Key = std::tuple<std::uint32_t, std::int64_t, std::string,
                         std::string, std::uint64_t>;
  std::map<Key, int> open;
  std::size_t retargeted = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.ph != 'b' && ev.ph != 'e') continue;
    const Key key{ev.epoch, ev.node, ev.cat, ev.name, ev.id};
    if (ev.ph == 'b') {
      EXPECT_EQ(open[key]++, 0) << ev.name << " " << ev.id << " reopened";
      continue;
    }
    EXPECT_EQ(open[key]--, 1) << ev.name << " " << ev.id << " never opened";
    for (const auto& [name, value] : ev.args) {
      if (name == "height" && static_cast<std::uint64_t>(value.as_int()) != ev.id) {
        ++retargeted;
      }
    }
  }
  EXPECT_GE(retargeted, 1u);  // the run exercises a retarget
  for (const auto& [key, count] : open) {
    if (std::get<2>(key) == "recovery") {
      EXPECT_EQ(count, 0) << "state transfer " << std::get<4>(key);
    }
  }
}

TEST(Trace, EpochZeroIsClaimedByFirstOpen) {
  obs::Tracer tracer;
  EXPECT_EQ(tracer.open_epoch("first"), 0u);   // claims the implicit epoch
  EXPECT_EQ(tracer.open_epoch("second"), 1u);  // appends after that
}

// ---------------------------------------------------------------------------
// Byte-identical artifacts across thread counts
// ---------------------------------------------------------------------------

struct MergedArtifacts {
  std::string prom;
  std::string trace;
};

MergedArtifacts run_observed_grid(std::size_t threads) {
  exp::Grid grid;
  grid.axis("protocol", {"EESMR", "SyncHS"});
  grid.axis(exp::Axis::of("n", std::vector<int>{4, 5}));
  exp::RunnerOptions ro;
  ro.threads = threads;
  ro.seed = 9;
  std::vector<exp::RunArtifacts> slots;
  ro.artifacts = &slots;
  ro.collect_registry = true;
  ro.collect_trace = true;
  exp::run_matrix(grid, [&](const exp::RunContext& c) {
    harness::ClusterConfig cfg;
    cfg.protocol = c.label("protocol") == "EESMR"
                       ? harness::Protocol::kEesmr
                       : harness::Protocol::kSyncHotStuff;
    cfg.n = c.label("n") == "4" ? 4 : 5;
    cfg.f = 1;
    cfg.seed = c.seed;
    const harness::RunResult r = exp::run_steady(c, cfg, 4);
    exp::MetricRow row;
    row.set("mj_per_block", r.energy_per_block_mj());
    return row;
  }, ro);

  // The same assembly Experiment::finish() performs.
  MergedArtifacts out;
  Registry merged;
  Json events = Json::array();
  int pid = 1;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    merged.merge(slots[i].registry,
                 {{"section", "main"}, {"run", std::to_string(i)}});
    pid = slots[i].tracer.append_chrome(events, pid,
                                        "main/run" + std::to_string(i) + " ");
  }
  out.prom = merged.text();
  out.trace = obs::Tracer::chrome_document(std::move(events)).pretty();
  return out;
}

TEST(Obs, ArtifactsByteIdenticalAcrossThreadCounts) {
  const MergedArtifacts baseline = run_observed_grid(1);
  EXPECT_GT(baseline.prom.size(), 1000u);
  EXPECT_GT(baseline.trace.size(), 1000u);
  for (const std::size_t threads : {4u, 8u}) {
    const MergedArtifacts other = run_observed_grid(threads);
    EXPECT_EQ(other.prom, baseline.prom) << "threads=" << threads;
    EXPECT_EQ(other.trace, baseline.trace) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace eesmr
