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
       32247072.249999981},
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
       3869987.1250000014},
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

}  // namespace
}  // namespace eesmr::harness
