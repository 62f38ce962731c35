// Sync HotStuff / OptSync / trusted-baseline integration tests.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "src/adversary/adversary.hpp"
#include "src/harness/cluster.hpp"
#include "src/smr/request.hpp"

namespace eesmr::harness {
namespace {

using smr::ByzantineMode;

ClusterConfig shs_config(std::size_t n, std::size_t f) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kSyncHotStuff;
  cfg.n = n;
  cfg.f = f;
  cfg.hop_delay = sim::milliseconds(10);
  cfg.seed = 7;
  return cfg;
}

TEST(SyncHotStuff, HappyPathCommits) {
  Cluster cluster(shs_config(4, 1));
  const RunResult r = cluster.run_until_commits(10, sim::seconds(60));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 10u);
  EXPECT_EQ(r.view_changes, 0u);
}

TEST(SyncHotStuff, EveryNodeSignsEveryBlock) {
  // The energy-relevant contrast to EESMR: per-block votes from all.
  Cluster cluster(shs_config(4, 1));
  const RunResult r = cluster.run_until_commits(10, sim::seconds(60));
  ASSERT_GE(r.min_committed(), 10u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_GE(r.meters[i].ops(energy::Category::kSign),
              r.logs[i].size() - 1)
        << "node " << i;
  }
}

TEST(SyncHotStuff, CrashedLeaderViewChange) {
  ClusterConfig cfg = shs_config(4, 1);
  cfg.faults = {{1, ByzantineMode::kCrash, 5}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(8, sim::seconds(240));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.view_changes, 1u);
  EXPECT_GE(r.min_committed(), 8u);
}

TEST(SyncHotStuff, EquivocatingLeaderViewChange) {
  ClusterConfig cfg = shs_config(4, 1);
  cfg.faults = {{1, ByzantineMode::kEquivocate, 5}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(8, sim::seconds(240));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.view_changes, 1u);
  EXPECT_GE(r.min_committed(), 8u);
}

TEST(SyncHotStuff, KcastRingTopology) {
  ClusterConfig cfg = shs_config(7, 2);
  cfg.k = 3;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(6, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 6u);
}

TEST(SyncHotStuff, MoreEnergyPerBlockThanEesmr) {
  // The paper's headline: EESMR's steady state is 2.8x cheaper than
  // Sync HotStuff's. Accept any ratio > 1.5 at this scale.
  auto energy_of = [&](Protocol p) {
    ClusterConfig cfg = shs_config(7, 3);
    cfg.protocol = p;
    cfg.k = 4;
    Cluster cluster(cfg);
    const RunResult r = cluster.run_until_commits(8, sim::seconds(600));
    EXPECT_GE(r.min_committed(), 8u);
    return r.energy_per_block_mj();
  };
  const double shs = energy_of(Protocol::kSyncHotStuff);
  const double ee = energy_of(Protocol::kEesmr);
  EXPECT_GT(shs / ee, 1.5) << "shs=" << shs << " eesmr=" << ee;
}

TEST(OptSync, HappyPathCommits) {
  ClusterConfig cfg = shs_config(4, 1);
  cfg.protocol = Protocol::kOptSync;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(10, sim::seconds(60));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 10u);
}

TEST(OptSync, FastPathCommitsQuicklyWithAllHonest) {
  // Responsive commit: with every vote arriving, commits happen before
  // the 2Δ synchronous timer — OptSync reaches the target sooner.
  auto time_to = [&](Protocol p) {
    ClusterConfig cfg = shs_config(8, 3);
    cfg.protocol = p;
    Cluster cluster(cfg);
    const RunResult r = cluster.run_until_commits(10, sim::seconds(120));
    EXPECT_GE(r.min_committed(), 10u);
    return r.end_time;
  };
  EXPECT_LE(time_to(Protocol::kOptSync), time_to(Protocol::kSyncHotStuff));
}

TEST(OptSync, SynchronousFallbackUnderAdversarialDelays) {
  // With every delivery stretched to the hop bound the responsive
  // quorum brings no speedup, but the 2Δ synchronous rule still commits.
  ClusterConfig cfg = shs_config(8, 3);
  cfg.protocol = Protocol::kOptSync;
  cfg.adversarial_delays = true;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(6, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 6u);
  EXPECT_EQ(r.view_changes, 0u);
}

TEST(OptSync, ViewChangeWithCrashedLeader) {
  ClusterConfig cfg = shs_config(5, 2);
  cfg.protocol = Protocol::kOptSync;
  cfg.faults = {{1, ByzantineMode::kCrash, 4}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(6, sim::seconds(240));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 6u);
  EXPECT_GE(r.view_changes, 1u);
}

TEST(RotatingLeader, EveryNodeTakesTurnsProposing) {
  ClusterConfig cfg = shs_config(5, 2);
  cfg.synchs.rotating_leader = true;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(10, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  ASSERT_GE(r.min_committed(), 10u);
  // Table 3's rotating row: the proposer changes every height.
  std::set<NodeId> proposers;
  for (const smr::Block& b : r.logs[0]) proposers.insert(b.proposer);
  EXPECT_EQ(proposers.size(), 5u);
  for (std::size_t i = 1; i < r.logs[0].size(); ++i) {
    EXPECT_NE(r.logs[0][i].proposer, r.logs[0][i - 1].proposer);
  }
}

TEST(RotatingLeader, SpreadsSigningLoadEvenly) {
  ClusterConfig cfg = shs_config(4, 1);
  cfg.synchs.rotating_leader = true;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(12, sim::seconds(120));
  ASSERT_GE(r.min_committed(), 12u);
  // In single-leader mode the leader signs proposals on top of votes; in
  // rotating mode that extra load spreads: max/min sign counts are close.
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (NodeId i = 0; i < 4; ++i) {
    lo = std::min(lo, r.meters[i].ops(energy::Category::kSign));
    hi = std::max(hi, r.meters[i].ops(energy::Category::kSign));
  }
  EXPECT_LE(hi - lo, r.min_committed() / 2 + 2);
}

TEST(TrustedBaseline, OrdersAndCommits) {
  ClusterConfig cfg = shs_config(4, 1);
  cfg.protocol = Protocol::kTrustedBaseline;
  cfg.medium = energy::Medium::k4gLte;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(5, sim::seconds(60));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 5u);
}

TEST(TrustedBaseline, ControlNodeEnergyNotCounted) {
  ClusterConfig cfg = shs_config(4, 1);
  cfg.protocol = Protocol::kTrustedBaseline;
  cfg.medium = energy::Medium::k4gLte;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(5, sim::seconds(60));
  ASSERT_EQ(r.counted.size(), 5u);
  EXPECT_FALSE(r.counted[4]);
  // The controller did spend energy; it's just excluded from totals.
  EXPECT_GT(r.meters[4].total_millijoules(), 0.0);
  double counted_total = 0;
  for (NodeId i = 0; i < 4; ++i) counted_total += r.node_energy_mj(i);
  EXPECT_DOUBLE_EQ(r.total_energy_mj(), counted_total);
}

TEST(TrustedBaseline, ReplicasVerifyOnlyControllerSignature) {
  ClusterConfig cfg = shs_config(4, 1);
  cfg.protocol = Protocol::kTrustedBaseline;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(5, sim::seconds(60));
  ASSERT_GE(r.min_committed(), 5u);
  for (NodeId i = 0; i < 4; ++i) {
    // One verification per ordered block (plus none for votes: there are
    // no votes in the baseline).
    EXPECT_LE(r.meters[i].ops(energy::Category::kVerify),
              r.logs[i].size() + 2)
        << "node " << i;
  }
}

TEST(TrustedBaseline, ControllerDedupsFloodedRequests) {
  // With real clients, every CPS node pools each flooded request and
  // ships it up in its next kSubmit batch, so the controller sees up to
  // n copies per request. Dedup must order one copy and count the rest
  // as saved orderings, so no request occupies a second ordered slot
  // that every CPS node would pay to receive.
  ClusterConfig cfg = shs_config(4, 1);
  cfg.protocol = Protocol::kTrustedBaseline;
  cfg.medium = energy::Medium::k4gLte;
  cfg.clients = 2;
  cfg.batch_size = 8;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 2;
  cfg.workload.max_requests = 10;

  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(20, sim::seconds(2000));
  ASSERT_EQ(r.requests_accepted, 20u);
  EXPECT_TRUE(r.safety_ok());

  // Duplicates were actually skipped, and the savings are reported.
  EXPECT_GT(r.controller_dedup_saved, 0u);
  EXPECT_GT(r.controller_dedup_bytes_saved, 0u);

  // Each (client, req_id) was ordered once: no CPS log carries a copy.
  for (NodeId i = 0; i < cfg.n; ++i) {
    std::set<std::pair<NodeId, std::uint64_t>> ordered;
    for (const smr::Block& b : cluster.replica(i).log()) {
      for (const smr::Command& cmd : b.cmds) {
        const auto req = smr::ClientRequest::decode(cmd.data);
        if (!req.has_value()) continue;
        EXPECT_TRUE(ordered.insert({req->client, req->req_id}).second)
            << "node " << i << " client " << req->client << " req "
            << req->req_id;
      }
    }
    EXPECT_FALSE(ordered.empty()) << "node " << i;
  }
}

TEST(TrustedBaseline, ControllerDedupStateStaysBoundedOverLongRuns) {
  // The controller's (client, req_id) seen-set is a per-client
  // watermark + sparse tail, not a per-request set: a long run with
  // ascending client req_ids must leave O(clients) live entries, not
  // O(requests ordered) — the ROADMAP unbounded-seen-set fix.
  ClusterConfig cfg = shs_config(4, 1);
  cfg.protocol = Protocol::kTrustedBaseline;
  cfg.clients = 2;
  cfg.batch_size = 8;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 4;
  cfg.workload.max_requests = 150;

  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(300, sim::seconds(5000));
  ASSERT_EQ(r.requests_accepted, 300u);
  EXPECT_GT(r.controller_dedup_saved, 0u);

  const auto* ctl = dynamic_cast<const baselines::TrustedController*>(
      &cluster.replica(static_cast<NodeId>(cfg.n)));
  ASSERT_NE(ctl, nullptr);
  // 300 requests ordered; live dedup state is the two client watermarks
  // plus whatever reordering tail is still open (flooded submissions
  // arrive near-ascending, so the tail is a handful of entries).
  EXPECT_LE(ctl->dedup_state_entries(), cfg.clients * 8);
}

// ---------------------------------------------------------------------------
// Golden pin for the partially-synchronous baselines' view changes
// ---------------------------------------------------------------------------

// Every integer field of a RunSummary, as one comparable line.
std::string integer_fields(const RunSummary& s) {
  std::ostringstream o;
  o << "nodes=" << s.nodes << " safety_ok=" << s.safety_ok
    << " min_committed=" << s.min_committed
    << " max_committed=" << s.max_committed
    << " view_changes=" << s.view_changes
    << " transmissions=" << s.transmissions
    << " bytes_transmitted=" << s.bytes_transmitted
    << " requests_submitted=" << s.requests_submitted
    << " requests_accepted=" << s.requests_accepted
    << " request_retransmissions=" << s.request_retransmissions
    << " requests_dropped=" << s.requests_dropped
    << " requests_rate_limited=" << s.requests_rate_limited
    << " request_failovers=" << s.request_failovers
    << " requests_forwarded=" << s.requests_forwarded
    << " request_hints_applied=" << s.request_hints_applied
    << " controller_dedup_saved=" << s.controller_dedup_saved
    << " controller_dedup_bytes_saved=" << s.controller_dedup_bytes_saved
    << " latency_samples=" << s.latency_samples
    << " state_transfers=" << s.state_transfers
    << " max_retained_log=" << s.max_retained_log
    << " max_dedup_entries=" << s.max_dedup_entries
    << " max_store_blocks=" << s.max_store_blocks
    << " max_checkpoints_taken=" << s.max_checkpoints_taken
    << " safety_violations=" << s.safety_violations
    << " liveness_ok=" << s.liveness_ok
    << " faults_dropped=" << s.faults_dropped
    << " faults_duplicated=" << s.faults_duplicated
    << " faults_reordered=" << s.faults_reordered
    << " msgs_withheld=" << s.msgs_withheld
    << " byz_requests_sent=" << s.byz_requests_sent
    << " membership_changes=" << s.membership_changes
    << " membership_generation=" << s.membership_generation
    << " acceptance_certs=" << s.acceptance_certs;
  return o.str();
}

// PBFT (n=4) and MinBFT (n=3) at f=1 under the chase-the-leader
// schedule, which crashes whoever leads every 400 ms: timeouts, the f+1
// join rule, new-view announcements, checkpoints and state transfers all
// run many times in 10 simulated seconds. No committed bench or perfbench
// workload pins PBFT view changes, so these values are the byte-identity
// reference for any refactor of that engine. Two clients run the default
// closed-loop workload.
struct GoldenCell {
  Protocol protocol;
  smr::CertScheme scheme;
  const char* ints;
  double total_energy_mj;
};

RunSummary run_golden_cell(const GoldenCell& cell) {
  ClusterConfig cfg;
  cfg.protocol = cell.protocol;
  cfg.n = cell.protocol == Protocol::kMinBft ? 3 : 4;
  cfg.f = 1;
  cfg.seed = 5;
  cfg.cert_scheme = cell.scheme;
  cfg.checkpoint_interval = 8;
  cfg.clients = 2;
  adversary::apply_attack(cfg, adversary::AttackKind::kChaseLeader);
  Cluster cluster(cfg);
  return cluster.run_for(sim::seconds(10)).summarize();
}

TEST(PartialSyncGolden, ChaseLeaderViewChangesAreUnchanged) {
  const GoldenCell cells[] = {
      {Protocol::kPbft, smr::CertScheme::kIndividual,
       "nodes=6 safety_ok=1 min_committed=210 max_committed=227 "
       "view_changes=24 transmissions=20447 "
       "bytes_transmitted=5365583 requests_submitted=199 "
       "requests_accepted=197 request_retransmissions=0 "
       "requests_dropped=0 requests_rate_limited=0 "
       "request_failovers=0 requests_forwarded=0 "
       "request_hints_applied=0 controller_dedup_saved=0 "
       "controller_dedup_bytes_saved=0 latency_samples=197 "
       "state_transfers=12 max_retained_log=6 max_dedup_entries=36 "
       "max_store_blocks=8 max_checkpoints_taken=30 "
       "safety_violations=0 liveness_ok=1 faults_dropped=0 "
       "faults_duplicated=0 faults_reordered=0 msgs_withheld=0 "
       "byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       1858098.0549999934},
      {Protocol::kPbft, smr::CertScheme::kAggregate,
       "nodes=6 safety_ok=1 min_committed=200 max_committed=214 "
       "view_changes=24 transmissions=18805 "
       "bytes_transmitted=3526487 requests_submitted=187 "
       "requests_accepted=185 request_retransmissions=0 "
       "requests_dropped=0 requests_rate_limited=0 "
       "request_failovers=0 requests_forwarded=0 "
       "request_hints_applied=0 controller_dedup_saved=0 "
       "controller_dedup_bytes_saved=0 latency_samples=185 "
       "state_transfers=12 max_retained_log=3 max_dedup_entries=40 "
       "max_store_blocks=5 max_checkpoints_taken=28 "
       "safety_violations=0 liveness_ok=1 faults_dropped=0 "
       "faults_duplicated=0 faults_reordered=0 msgs_withheld=0 "
       "byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=185",
       32247063.849999983},
      {Protocol::kMinBft, smr::CertScheme::kIndividual,
       "nodes=5 safety_ok=1 min_committed=455 max_committed=478 "
       "view_changes=19 transmissions=6976 bytes_transmitted=2194623 "
       "requests_submitted=179 requests_accepted=177 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=177 state_transfers=12 max_retained_log=22 "
       "max_dedup_entries=17 max_store_blocks=24 "
       "max_checkpoints_taken=65 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       1246584.1899999974},
      {Protocol::kMinBft, smr::CertScheme::kAggregate,
       "nodes=5 safety_ok=1 min_committed=445 max_committed=447 "
       "view_changes=19 transmissions=6362 bytes_transmitted=1896398 "
       "requests_submitted=181 requests_accepted=179 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=179 state_transfers=11 max_retained_log=4 "
       "max_dedup_entries=27 max_store_blocks=5 "
       "max_checkpoints_taken=58 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=179",
       3869974.5250000018},
  };
  for (const GoldenCell& cell : cells) {
    SCOPED_TRACE(std::string(protocol_name(cell.protocol)) + " " +
                 smr::cert_scheme_name(cell.scheme));
    const RunSummary s = run_golden_cell(cell);
    EXPECT_EQ(integer_fields(s), cell.ints);
    EXPECT_NEAR(s.total_energy_mj, cell.total_energy_mj,
                1e-9 * cell.total_energy_mj);
  }
}

// ---------------------------------------------------------------------------
// Golden pin for the synchronous protocols' blame view changes
// ---------------------------------------------------------------------------

// EESMR (full mesh and the k=3 k-cast ring), Sync HotStuff and OptSync
// at f=2, each under a crashed leader, chase-the-leader and an
// equivocating leader: blames, blame certificates, quit-view, status
// and new-view bootstraps, checkpoints and state transfers into later
// views. These values are the byte-identity reference for any refactor
// of the blame view-change engine the three protocols share.
struct SyncGoldenCell {
  const char* name;
  Protocol protocol;
  std::size_t n;
  std::size_t k;
  smr::CertScheme scheme;
  adversary::AttackKind attack;
  const char* ints;
  double total_energy_mj;
};

RunSummary run_sync_golden_cell(const SyncGoldenCell& cell) {
  ClusterConfig cfg;
  cfg.protocol = cell.protocol;
  cfg.n = cell.n;
  cfg.f = 2;
  cfg.k = cell.k;
  cfg.seed = 5;
  cfg.cert_scheme = cell.scheme;
  cfg.checkpoint_interval = 8;
  cfg.clients = 2;
  adversary::apply_attack(cfg, cell.attack);
  Cluster cluster(cfg);
  return cluster.run_for(sim::seconds(10)).summarize();
}

TEST(SyncViewChangeGolden, BlameViewChangesAreUnchanged) {
  using adversary::AttackKind;
  constexpr auto kIndiv = smr::CertScheme::kIndividual;
  constexpr auto kAgg = smr::CertScheme::kAggregate;
  const SyncGoldenCell cells[] = {
      {"eesmr-mesh", Protocol::kEesmr, 5, 0, kIndiv, AttackKind::kCrash,
       "nodes=7 safety_ok=1 min_committed=120 max_committed=120 "
       "view_changes=2 transmissions=5017 bytes_transmitted=1529654 "
       "requests_submitted=119 requests_accepted=117 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=117 state_transfers=27 max_retained_log=5 "
       "max_dedup_entries=18 max_store_blocks=7 "
       "max_checkpoints_taken=15 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       484561.34499999753},
      {"eesmr-mesh", Protocol::kEesmr, 5, 0, kIndiv, AttackKind::kChaseLeader,
       "nodes=7 safety_ok=1 min_committed=65 max_committed=71 "
       "view_changes=24 transmissions=10223 bytes_transmitted=4128940 "
       "requests_submitted=34 requests_accepted=32 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=32 state_transfers=7 max_retained_log=6 "
       "max_dedup_entries=20 max_store_blocks=7 "
       "max_checkpoints_taken=10 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       938065.37999999803},
      {"eesmr-mesh", Protocol::kEesmr, 5, 0, kIndiv, AttackKind::kEquivocate,
       "nodes=7 safety_ok=1 min_committed=122 max_committed=122 "
       "view_changes=2 transmissions=8478 bytes_transmitted=2587020 "
       "requests_submitted=120 requests_accepted=118 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=118 state_transfers=0 max_retained_log=6 "
       "max_dedup_entries=20 max_store_blocks=8 "
       "max_checkpoints_taken=15 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       520034.81999999611},
      {"eesmr-mesh", Protocol::kEesmr, 5, 0, kAgg, AttackKind::kCrash,
       "nodes=7 safety_ok=1 min_committed=120 max_committed=120 "
       "view_changes=2 transmissions=4718 bytes_transmitted=1252049 "
       "requests_submitted=119 requests_accepted=117 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=117 state_transfers=27 max_retained_log=5 "
       "max_dedup_entries=18 max_store_blocks=7 "
       "max_checkpoints_taken=15 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=117",
       2628031.0899999994},
      {"eesmr-mesh", Protocol::kEesmr, 5, 0, kAgg, AttackKind::kChaseLeader,
       "nodes=7 safety_ok=1 min_committed=65 max_committed=72 "
       "view_changes=24 transmissions=9859 bytes_transmitted=2015850 "
       "requests_submitted=37 requests_accepted=35 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=35 state_transfers=9 max_retained_log=6 "
       "max_dedup_entries=18 max_store_blocks=11 "
       "max_checkpoints_taken=10 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=35",
       18729539.485000022},
      {"eesmr-mesh", Protocol::kEesmr, 5, 0, kAgg, AttackKind::kEquivocate,
       "nodes=7 safety_ok=1 min_committed=122 max_committed=122 "
       "view_changes=2 transmissions=7338 bytes_transmitted=2038236 "
       "requests_submitted=120 requests_accepted=118 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=118 state_transfers=0 max_retained_log=6 "
       "max_dedup_entries=20 max_store_blocks=8 "
       "max_checkpoints_taken=15 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=118",
       2832538.7399999988},
      {"eesmr-kcast", Protocol::kEesmr, 7, 3, kIndiv, AttackKind::kCrash,
       "nodes=9 safety_ok=1 min_committed=78 max_committed=79 "
       "view_changes=2 transmissions=2438 bytes_transmitted=710664 "
       "requests_submitted=77 requests_accepted=75 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=75 state_transfers=17 max_retained_log=4 "
       "max_dedup_entries=16 max_store_blocks=6 "
       "max_checkpoints_taken=10 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       1069320.3030000012},
      {"eesmr-kcast", Protocol::kEesmr, 7, 3, kIndiv, AttackKind::kChaseLeader,
       "nodes=9 safety_ok=1 min_committed=38 max_committed=42 "
       "view_changes=15 transmissions=4346 bytes_transmitted=1576293 "
       "requests_submitted=30 requests_accepted=28 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=28 state_transfers=5 max_retained_log=6 "
       "max_dedup_entries=12 max_store_blocks=8 "
       "max_checkpoints_taken=8 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       2862408.7709999783},
      {"eesmr-kcast", Protocol::kEesmr, 7, 3, kIndiv, AttackKind::kEquivocate,
       "nodes=9 safety_ok=1 min_committed=81 max_committed=81 "
       "view_changes=2 transmissions=3316 bytes_transmitted=947706 "
       "requests_submitted=79 requests_accepted=77 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=77 state_transfers=0 max_retained_log=5 "
       "max_dedup_entries=18 max_store_blocks=7 "
       "max_checkpoints_taken=10 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       1322429.6910000059},
      {"eesmr-kcast", Protocol::kEesmr, 7, 3, kAgg, AttackKind::kCrash,
       "nodes=9 safety_ok=1 min_committed=78 max_committed=79 "
       "view_changes=2 transmissions=2305 bytes_transmitted=529503 "
       "requests_submitted=77 requests_accepted=75 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=75 state_transfers=17 max_retained_log=4 "
       "max_dedup_entries=16 max_store_blocks=6 "
       "max_checkpoints_taken=10 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=75",
       5012581.7109999992},
      {"eesmr-kcast", Protocol::kEesmr, 7, 3, kAgg, AttackKind::kChaseLeader,
       "nodes=9 safety_ok=1 min_committed=28 max_committed=32 "
       "view_changes=17 transmissions=4328 bytes_transmitted=792437 "
       "requests_submitted=24 requests_accepted=22 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=22 state_transfers=4 max_retained_log=6 "
       "max_dedup_entries=12 max_store_blocks=8 "
       "max_checkpoints_taken=6 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=22",
       30217755.411000036},
      {"eesmr-kcast", Protocol::kEesmr, 7, 3, kAgg, AttackKind::kEquivocate,
       "nodes=9 safety_ok=1 min_committed=81 max_committed=81 "
       "view_changes=2 transmissions=3014 bytes_transmitted=712119 "
       "requests_submitted=79 requests_accepted=77 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=77 state_transfers=0 max_retained_log=5 "
       "max_dedup_entries=18 max_store_blocks=7 "
       "max_checkpoints_taken=10 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=77",
       5145736.8249999983},
      {"synchs", Protocol::kSyncHotStuff, 5, 0, kIndiv, AttackKind::kCrash,
       "nodes=7 safety_ok=1 min_committed=677 max_committed=677 "
       "view_changes=2 transmissions=24304 bytes_transmitted=10984689 "
       "requests_submitted=210 requests_accepted=208 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=208 state_transfers=167 max_retained_log=4 "
       "max_dedup_entries=6 max_store_blocks=8 "
       "max_checkpoints_taken=85 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       2903531.8350000354},
      {"synchs", Protocol::kSyncHotStuff, 5, 0, kIndiv,
       AttackKind::kChaseLeader,
       "nodes=7 safety_ok=1 min_committed=432 max_committed=434 "
       "view_changes=24 transmissions=23651 bytes_transmitted=10917095 "
       "requests_submitted=90 requests_accepted=88 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=88 state_transfers=24 max_retained_log=7 "
       "max_dedup_entries=11 max_store_blocks=10 "
       "max_checkpoints_taken=42 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       2695020.2900000117},
      {"synchs", Protocol::kSyncHotStuff, 5, 0, kIndiv, AttackKind::kEquivocate,
       "nodes=7 safety_ok=1 min_committed=857 max_committed=857 "
       "view_changes=1 transmissions=51924 bytes_transmitted=23159033 "
       "requests_submitted=215 requests_accepted=213 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=213 state_transfers=0 max_retained_log=1 "
       "max_dedup_entries=3 max_store_blocks=6 "
       "max_checkpoints_taken=107 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       3349118.090000107},
      {"synchs", Protocol::kSyncHotStuff, 5, 0, kAgg, AttackKind::kCrash,
       "nodes=7 safety_ok=1 min_committed=679 max_committed=680 "
       "view_changes=2 transmissions=22633 bytes_transmitted=6802737 "
       "requests_submitted=208 requests_accepted=206 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=206 state_transfers=167 max_retained_log=7 "
       "max_dedup_entries=8 max_store_blocks=11 "
       "max_checkpoints_taken=85 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=206",
       63716890.904999122},
      {"synchs", Protocol::kSyncHotStuff, 5, 0, kAgg, AttackKind::kChaseLeader,
       "nodes=7 safety_ok=1 min_committed=163 max_committed=193 "
       "view_changes=10 transmissions=9379 bytes_transmitted=2700195 "
       "requests_submitted=45 requests_accepted=43 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=43 state_transfers=8 max_retained_log=16 "
       "max_dedup_entries=15 max_store_blocks=17 "
       "max_checkpoints_taken=20 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=43",
       33945992.245000109},
      {"synchs", Protocol::kSyncHotStuff, 5, 0, kAgg, AttackKind::kEquivocate,
       "nodes=7 safety_ok=1 min_committed=862 max_committed=862 "
       "view_changes=1 transmissions=43999 bytes_transmitted=13447210 "
       "requests_submitted=216 requests_accepted=214 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=214 state_transfers=0 max_retained_log=6 "
       "max_dedup_entries=5 max_store_blocks=11 "
       "max_checkpoints_taken=107 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=214",
       124164714.08499977},
      {"optsync", Protocol::kOptSync, 5, 0, kIndiv, AttackKind::kCrash,
       "nodes=7 safety_ok=1 min_committed=681 max_committed=682 "
       "view_changes=2 transmissions=24446 bytes_transmitted=11041179 "
       "requests_submitted=211 requests_accepted=209 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=209 state_transfers=166 max_retained_log=8 "
       "max_dedup_entries=5 max_store_blocks=12 "
       "max_checkpoints_taken=86 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       2917231.930000036},
      {"optsync", Protocol::kOptSync, 5, 0, kIndiv, AttackKind::kChaseLeader,
       "nodes=7 safety_ok=1 min_committed=403 max_committed=421 "
       "view_changes=24 transmissions=24329 bytes_transmitted=10872599 "
       "requests_submitted=152 requests_accepted=150 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=150 state_transfers=23 max_retained_log=4 "
       "max_dedup_entries=15 max_store_blocks=5 "
       "max_checkpoints_taken=41 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       2730870.4100000095},
      {"optsync", Protocol::kOptSync, 5, 0, kIndiv, AttackKind::kEquivocate,
       "nodes=7 safety_ok=1 min_committed=867 max_committed=868 "
       "view_changes=1 transmissions=58915 bytes_transmitted=24732619 "
       "requests_submitted=435 requests_accepted=433 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=433 state_transfers=0 max_retained_log=4 "
       "max_dedup_entries=9 max_store_blocks=5 "
       "max_checkpoints_taken=108 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=0",
       3757056.4150001593},
      {"optsync", Protocol::kOptSync, 5, 0, kAgg, AttackKind::kCrash,
       "nodes=7 safety_ok=1 min_committed=677 max_committed=678 "
       "view_changes=2 transmissions=22578 bytes_transmitted=6785220 "
       "requests_submitted=208 requests_accepted=206 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=206 state_transfers=165 max_retained_log=5 "
       "max_dedup_entries=7 max_store_blocks=9 "
       "max_checkpoints_taken=85 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=206",
       63497909.584999129},
      {"optsync", Protocol::kOptSync, 5, 0, kAgg, AttackKind::kChaseLeader,
       "nodes=7 safety_ok=1 min_committed=356 max_committed=382 "
       "view_changes=22 transmissions=20235 bytes_transmitted=5637823 "
       "requests_submitted=147 requests_accepted=145 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=145 state_transfers=20 max_retained_log=17 "
       "max_dedup_entries=35 max_store_blocks=21 "
       "max_checkpoints_taken=36 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=145",
       67002560.964999735},
      {"optsync", Protocol::kOptSync, 5, 0, kAgg, AttackKind::kEquivocate,
       "nodes=7 safety_ok=1 min_committed=862 max_committed=862 "
       "view_changes=1 transmissions=50384 bytes_transmitted=14691547 "
       "requests_submitted=433 requests_accepted=431 "
       "request_retransmissions=0 requests_dropped=0 "
       "requests_rate_limited=0 request_failovers=0 "
       "requests_forwarded=0 request_hints_applied=0 "
       "controller_dedup_saved=0 controller_dedup_bytes_saved=0 "
       "latency_samples=431 state_transfers=0 max_retained_log=6 "
       "max_dedup_entries=11 max_store_blocks=8 "
       "max_checkpoints_taken=107 safety_violations=0 liveness_ok=1 "
       "faults_dropped=0 faults_duplicated=0 faults_reordered=0 "
       "msgs_withheld=0 byz_requests_sent=0 membership_changes=0 "
       "membership_generation=0 acceptance_certs=431",
       125259695.34999982},
  };
  for (const SyncGoldenCell& cell : cells) {
    SCOPED_TRACE(std::string(cell.name) + " " +
                 smr::cert_scheme_name(cell.scheme) + " " +
                 adversary::attack_name(cell.attack));
    const RunSummary s = run_sync_golden_cell(cell);
    EXPECT_EQ(integer_fields(s), cell.ints);
    EXPECT_NEAR(s.total_energy_mj, cell.total_energy_mj,
                1e-9 * cell.total_energy_mj);
  }
}

}  // namespace
}  // namespace eesmr::harness
