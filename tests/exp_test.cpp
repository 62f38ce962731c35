// Experiment-engine tests: deterministic-parallel execution (same seed
// => byte-identical Report JSON at --threads 1/4/8, and byte-identical
// Prometheus exposition and Chrome trace at --threads 1/4), grid expansion
// order, per-run seed derivation, the ordered-JSON layer, and the
// RunResult serialization round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/experiment.hpp"
#include "src/exp/json.hpp"
#include "src/exp/record.hpp"
#include "src/exp/run_helpers.hpp"
#include "src/harness/cluster.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/rng.hpp"

namespace eesmr {
namespace {

using exp::Grid;
using exp::Json;
using exp::MetricRow;
using exp::Report;
using exp::RunContext;
using exp::RunnerOptions;
using harness::ClusterConfig;
using harness::RunResult;

// ---------------------------------------------------------------------------
// JSON layer
// ---------------------------------------------------------------------------

TEST(Json, ObjectKeepsInsertionOrder) {
  Json obj = Json::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":2,"mid":3})");
  // Re-setting a key keeps its position.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":9,"mid":3})");
}

TEST(Json, NumberFormattingIsDeterministic) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7.0).dump(), "-7");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(1e300).dump(), Json(1e300).dump());
  // Round-trip of a messy double through text preserves the value.
  const double v = 1234.5678901234567;
  const Json parsed = Json::parse(Json(v).dump());
  EXPECT_EQ(parsed.as_double(), v);
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"name":"x","vals":[1,2.5,-3],"nested":{"ok":true,"none":null},)"
      R"("s":"a\"b\nc"})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("name").as_string(), "x");
  EXPECT_EQ(doc.at("vals").size(), 3u);
  EXPECT_EQ(doc.at("vals").at(1).as_double(), 2.5);
  EXPECT_TRUE(doc.at("nested").at("ok").as_bool());
  EXPECT_TRUE(doc.at("nested").at("none").is_null());
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\nc");
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
  EXPECT_EQ(Json::parse(doc.pretty()), doc);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), exp::JsonError);
  EXPECT_THROW(Json::parse("[1,]"), exp::JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), exp::JsonError);
  EXPECT_THROW(Json::parse("nul"), exp::JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), exp::JsonError);
}

// ---------------------------------------------------------------------------
// Seeds and grids
// ---------------------------------------------------------------------------

TEST(DeriveSeed, StableDistinctAndNonAliasing) {
  // Pure function: same inputs, same output.
  EXPECT_EQ(sim::derive_seed(1, 0), sim::derive_seed(1, 0));
  // Different runs / bases decorrelate.
  EXPECT_NE(sim::derive_seed(1, 0), sim::derive_seed(1, 1));
  EXPECT_NE(sim::derive_seed(1, 0), sim::derive_seed(2, 0));
  // A run never aliases its own base seed.
  for (std::uint64_t base : {0ull, 1ull, 42ull, ~0ull}) {
    EXPECT_NE(sim::derive_seed(base, 0), base);
  }
  // No collisions across a realistic grid of runs.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.push_back(sim::derive_seed(7, i));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(Grid, RowMajorExpansionLastAxisFastest) {
  Grid g;
  g.axis("a", {"a0", "a1"});
  g.axis("b", {"b0", "b1", "b2"});
  ASSERT_EQ(g.size(), 6u);
  EXPECT_EQ(g.indices(0), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(g.indices(1), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(g.indices(3), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(g.indices(5), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(g.axis_pos("b"), 1u);
  EXPECT_THROW((void)g.axis_pos("missing"), std::out_of_range);
  EXPECT_THROW(g.axis(exp::Axis("a", {"dup"})), std::invalid_argument);
}

TEST(Grid, EmptyGridIsOneRun) {
  Grid g;
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.indices(0).empty());
}

// ---------------------------------------------------------------------------
// Runner determinism
// ---------------------------------------------------------------------------

/// A real simulation workload per grid point; heavy enough that worker
/// interleaving would surface any order dependence.
Report run_cluster_grid(std::size_t threads) {
  const std::vector<std::size_t> ns = {4, 5, 6};
  Grid grid;
  grid.axis(exp::Axis::of("n", ns));
  grid.axis("protocol", {"EESMR", "SyncHS"});
  RunnerOptions ro;
  ro.threads = threads;
  ro.seed = 77;
  Report rep;
  rep.name = "determinism";
  rep.grid = grid;
  rep.rows = exp::run_matrix(grid, [&](const RunContext& c) {
    ClusterConfig cfg;
    cfg.protocol = c.label("protocol") == "EESMR"
                       ? harness::Protocol::kEesmr
                       : harness::Protocol::kSyncHotStuff;
    cfg.n = ns[c.at("n")];
    cfg.f = 1;
    cfg.seed = c.seed;
    const RunResult r = exp::run_steady(cfg, 4);
    MetricRow row;
    row.set("blocks", r.min_committed());
    row.set("energy_per_block_mj", r.energy_per_block_mj());
    row.set("view_changes", r.view_changes);
    row.set("run", exp::run_result_json(r));
    return row;
  }, ro);
  return rep;
}

TEST(Runner, ByteIdenticalReportAcrossThreadCounts) {
  const std::string baseline = run_cluster_grid(1).to_json().pretty();
  EXPECT_GT(baseline.size(), 100u);
  for (const std::size_t threads : {4u, 8u}) {
    EXPECT_EQ(run_cluster_grid(threads).to_json().pretty(), baseline)
        << "threads=" << threads;
  }
  // And the CSV view too.
  EXPECT_EQ(run_cluster_grid(4).to_csv(), run_cluster_grid(1).to_csv());
}

/// Run a 3-protocol client grid through the runner at `threads` and
/// return the exact artifacts --prom-out / --trace-out would serialize.
std::pair<std::string, std::string> run_artifact_grid(std::size_t threads) {
  Grid grid;
  grid.axis("protocol", {"EESMR", "SyncHS", "MinBFT"});
  RunnerOptions ro;
  ro.threads = threads;
  ro.seed = 404;
  ro.trace_requests = 2;
  std::vector<exp::RunArtifacts> slots;
  ro.artifacts = &slots;
  ro.collect_registry = true;
  ro.collect_trace = true;
  (void)exp::run_matrix(grid, [&](const RunContext& c) {
    ClusterConfig cfg;
    const std::string proto = c.label("protocol");
    // MinBFT runs at n = 2f+1 with attested-counter ordering, which must
    // hold in exact delivery order on any runner thread.
    cfg.protocol = proto == "EESMR"    ? harness::Protocol::kEesmr
                   : proto == "SyncHS" ? harness::Protocol::kSyncHotStuff
                                       : harness::Protocol::kMinBft;
    cfg.n = proto == "MinBFT" ? 3 : 4;
    cfg.f = 1;
    cfg.seed = c.seed;
    cfg.clients = 2;
    cfg.checkpoint_interval = 8;
    cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
    cfg.workload.outstanding = 2;
    exp::prepare(c, cfg);
    const RunResult r = exp::run_steady(c, cfg, 12);
    MetricRow row;
    row.set("commits", r.min_committed());
    row.set("spec_join_hits", r.prof.pipeline.join_hits);
    row.set("bytes_copy_saved", r.prof.pipeline.bytes_copy_saved);
    return row;
  }, ro);

  std::string prom;
  Json events = Json::array();
  int pid = 1;
  for (exp::RunArtifacts& s : slots) {
    prom += s.registry.text();
    pid = s.tracer.append_chrome(events, pid, "run ");
  }
  return {prom, obs::Tracer::chrome_document(std::move(events)).pretty()};
}

TEST(Runner, ArtifactsByteIdenticalAcrossThreadCounts) {
  const auto [prom1, trace1] = run_artifact_grid(1);
  // The verdict-memo and zero-copy families export on every cluster run.
  EXPECT_NE(prom1.find("eesmr_prof_verify_memo_total"), std::string::npos);
  EXPECT_NE(prom1.find("eesmr_prof_bytes_copy_saved_total"),
            std::string::npos);
  const auto [prom4, trace4] = run_artifact_grid(4);
  EXPECT_EQ(prom4, prom1);
  EXPECT_EQ(trace4, trace1);
}

TEST(Runner, ResultsCommitInGridOrderRegardlessOfFinishOrder) {
  Grid grid;
  grid.axis(exp::Axis::of("i", std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  RunnerOptions ro;
  ro.threads = 4;
  ro.seed = 1;
  std::atomic<int> started{0};
  const auto rows = exp::run_matrix(grid, [&](const RunContext& c) {
    started.fetch_add(1);
    MetricRow row;
    row.set("index", c.index);
    row.set("seed", Json(static_cast<double>(c.seed)));
    return row;
  }, ro);
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(started.load(), 8);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].number("index"), static_cast<double>(i));
    EXPECT_EQ(rows[i].number("seed"),
              static_cast<double>(sim::derive_seed(1, i)));
  }
}

TEST(Runner, ExceptionsPropagateToCaller) {
  Grid grid;
  grid.axis(exp::Axis::of("i", std::vector<int>{0, 1, 2, 3}));
  RunnerOptions ro;
  ro.threads = 2;
  EXPECT_THROW(
      exp::run_matrix(grid, [](const RunContext& c) -> MetricRow {
        if (c.index == 2) throw std::runtime_error("boom");
        return MetricRow{};
      }, ro),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// RunResult serialization round-trip
// ---------------------------------------------------------------------------

TEST(Record, RunResultJsonRoundTrip) {
  // A run exercising the client, checkpoint and stream machinery so the
  // record has non-trivial content everywhere.
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 99;
  cfg.clients = 2;
  cfg.checkpoint_interval = 8;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 2;
  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_for(sim::seconds(8));
  ASSERT_GT(r.requests_accepted, 0u);

  const Json doc = exp::run_result_json(r);
  const std::string text = doc.pretty();
  const Json parsed = Json::parse(text);
  // Parse is lossless: identical tree, identical re-dump.
  EXPECT_EQ(parsed, doc);
  EXPECT_EQ(parsed.pretty(), text);

  // Streams carry the radio accounting: at least proposal + request
  // traffic must be present in a client run.
  EXPECT_TRUE(doc.at("streams").contains("proposal"));
  EXPECT_TRUE(doc.at("streams").contains("request"));
}

TEST(Record, SummaryJsonIsStableUnderRerun) {
  // The same config run twice serializes identically (full determinism
  // of the simulation + the serialization layer).
  const auto run_once = [] {
    ClusterConfig cfg;
    cfg.n = 5;
    cfg.f = 1;
    cfg.seed = 1234;
    harness::Cluster cluster(cfg);
    return exp::run_result_json(cluster.run_until_commits(5, sim::seconds(600)))
        .pretty();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

TEST(Cli, ParsesSharedFlags) {
  const char* argv[] = {"bench",      "--threads", "3",          "--smoke",
                        "--seed",     "99",        "--json-out", "x.json",
                        "--host-timing"};
  const exp::Options o =
      exp::parse_cli(static_cast<int>(std::size(argv)),
                     const_cast<char**>(argv), /*default_seed=*/7);
  EXPECT_EQ(o.threads, 3u);
  EXPECT_TRUE(o.smoke);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_EQ(o.json_out, "x.json");
  ASSERT_EQ(o.extra.size(), 1u);
  EXPECT_EQ(o.extra[0], "--host-timing");
}

TEST(Cli, DefaultSeedAppliesWhenFlagAbsent) {
  const char* argv[] = {"bench"};
  const exp::Options o = exp::parse_cli(1, const_cast<char**>(argv), 42);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_FALSE(o.smoke);
  EXPECT_TRUE(o.write_json);
}

TEST(Cli, RejectsMalformedValues) {
  const char* argv[] = {"bench", "--threads", "abc"};
  EXPECT_THROW(exp::parse_cli(3, const_cast<char**>(argv), 1),
               std::invalid_argument);
  const char* argv2[] = {"bench", "--seed"};
  EXPECT_THROW(exp::parse_cli(2, const_cast<char**>(argv2), 1),
               std::invalid_argument);
}

// No bench takes a flag of its own, so any argument the shared CLI does
// not know fails the run with exit code 2 instead of being ignored.
TEST(Cli, UnknownArgumentFailsTheRun) {
  const char* clean[] = {"bench", "--no-json"};
  exp::Experiment ok("cli_probe", "test", 2, const_cast<char**>(clean));
  EXPECT_EQ(ok.finish(), 0);
  const char* extra[] = {"bench", "--no-json", "--host-timing"};
  exp::Experiment bad("cli_probe", "test", 3, const_cast<char**>(extra));
  EXPECT_EQ(bad.finish(), 2);
}

}  // namespace
}  // namespace eesmr
