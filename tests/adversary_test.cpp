// Adversary & fault-injection conformance matrix: every protocol ×
// every attack kind at f Byzantine nodes. Safety (no conflicting honest
// commits at any height — checked in-run by the always-on SafetyChecker
// and on the final logs) must hold in EVERY cell; liveness (the honest
// commit frontier keeps advancing within the stall bound) must hold
// exactly for the attacks each protocol's documented tolerance covers.
// Identical seeds must reproduce identical fault schedules and verdicts.
//
// Also pins two documented behaviours: EESMR deep catch-up recovery
// without checkpoints (the try_accept round fast-forward re-anchors a
// deeply-lagged replica on the live round), and the boundedness of dedup
// state (flood seen-windows, reply cache) under adversarial
// duplication/reordering.
#include <gtest/gtest.h>

#include "src/adversary/adversary.hpp"
#include "src/obs/trace.hpp"

namespace eesmr {
namespace {

using adversary::AttackKind;
using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;

constexpr std::size_t kTarget = 30;          // committed blocks per cell
constexpr sim::Duration kDeadline = sim::seconds(30);

/// Everything a cell's verdict (and its reproducibility) is judged on.
struct Cell {
  bool safety = false;
  bool live = false;
  std::uint64_t min_committed = 0;
  std::uint64_t max_committed = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_reordered = 0;
  std::uint64_t msgs_withheld = 0;
  std::uint64_t byz_requests_sent = 0;
  std::uint64_t membership_changes = 0;
  std::uint64_t membership_generation = 0;
  double honest_energy_mj = 0;
  double adversary_energy_mj = 0;
  double stall_ms = 0;
  sim::SimTime end_time = 0;

  bool operator==(const Cell&) const = default;
};

ClusterConfig cell_config(Protocol p, AttackKind a, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.protocol = p;
  // Each protocol runs at its own replication factor for the same fault
  // budget f=1: MinBFT needs only n=2f+1 thanks to the trusted counter
  // tier; everything else in the matrix runs at n=3f+1.
  cfg.n = p == Protocol::kMinBft ? 3 : 4;
  cfg.f = 1;
  cfg.seed = seed;
  // Checkpoints keep the dedup state GC'd and give crash/recover cells a
  // state-transfer recovery path.
  cfg.checkpoint_interval = 8;
  cfg.client_pending_cap = 8;
  cfg.adversary.stall_bound = sim::seconds(10);
  adversary::apply_attack(cfg, a);
  return cfg;
}

Cell run_cell(Protocol p, AttackKind a, std::uint64_t seed) {
  harness::Cluster cluster(cell_config(p, a, seed));
  const RunResult r = cluster.run_until_commits(kTarget, kDeadline);
  Cell c;
  c.safety = r.safety_ok() && r.safety_violations == 0;
  c.live = r.min_committed() >= kTarget && r.liveness_ok();
  c.min_committed = r.min_committed();
  c.max_committed = r.max_committed();
  c.view_changes = r.view_changes;
  c.faults_dropped = r.faults_dropped;
  c.faults_duplicated = r.faults_duplicated;
  c.faults_reordered = r.faults_reordered;
  c.msgs_withheld = r.msgs_withheld;
  c.byz_requests_sent = r.byz_requests_sent;
  c.membership_changes = r.membership_changes;
  c.membership_generation = r.membership_generation;
  c.honest_energy_mj = r.total_energy_mj();
  c.adversary_energy_mj = r.adversary_energy_mj();
  c.stall_ms = sim::to_milliseconds(r.max_commit_stall);
  c.end_time = r.end_time;
  return c;
}

void check_matrix(Protocol p) {
  for (AttackKind a : adversary::all_attacks()) {
    SCOPED_TRACE(std::string(harness::protocol_name(p)) + " under " +
                 adversary::attack_name(a));
    const Cell c = run_cell(p, a, /*seed=*/0xad5e);
    // Safety holds in EVERY cell, tolerated attack or not.
    EXPECT_TRUE(c.safety);
    // Liveness exactly matches the documented tolerance.
    if (adversary::expect_liveness(p, a)) {
      EXPECT_TRUE(c.live) << "min=" << c.min_committed
                          << " stall_ms=" << c.stall_ms;
    } else {
      EXPECT_FALSE(c.live) << "min=" << c.min_committed
                           << " stall_ms=" << c.stall_ms;
    }
    // The attack actually executed (its fault counters moved).
    switch (a) {
      case AttackKind::kWithholdProposals:
        EXPECT_GT(c.msgs_withheld, 0u);
        break;
      case AttackKind::kVoteSuppression:
        // Vacuous against EESMR by design: "voting in the head" means a
        // steady-state run carries no votes to suppress — exactly the
        // certificate traffic the paper eliminates. Sync HotStuff votes
        // every block, so there the filter must have fired.
        if (p == Protocol::kSyncHotStuff) {
          EXPECT_GT(c.msgs_withheld, 0u);
        }
        break;
      case AttackKind::kDupReorder:
        EXPECT_GT(c.faults_duplicated, 0u);
        EXPECT_GT(c.faults_reordered, 0u);
        break;
      case AttackKind::kFaultyLinkDrop:
        EXPECT_GT(c.faults_dropped, 0u);
        break;
      case AttackKind::kGarbageClientFlood:
      case AttackKind::kReplayClientFlood:
        EXPECT_GT(c.byz_requests_sent, 0u);
        break;
      case AttackKind::kChaseLeader:
        // The chase keeps knocking out whoever leads: the cluster must
        // have routed around it through at least one view change.
        EXPECT_GT(c.view_changes, 0u);
        break;
      case AttackKind::kMembershipChurn:
        // The handoff actually happened: the join policy committed and
        // flipped every correct replica to generation 1, with the
        // equivocators and the crashed joiner unable to stop it.
        EXPECT_GT(c.membership_changes, 0u);
        EXPECT_EQ(c.membership_generation, 1u);
        break;
      default:
        break;
    }
  }
}

TEST(AdversaryConformance, MatrixEesmr) { check_matrix(Protocol::kEesmr); }

TEST(AdversaryConformance, MatrixSyncHotStuff) {
  check_matrix(Protocol::kSyncHotStuff);
}

TEST(AdversaryConformance, MatrixPbft) { check_matrix(Protocol::kPbft); }

TEST(AdversaryConformance, MatrixMinBft) { check_matrix(Protocol::kMinBft); }

// Identical seeds must reproduce identical fault schedules and verdicts
// (the deterministic-parallel exp engine then extends this to any
// --threads N, since every grid point runs its own scheduler).
TEST(AdversaryConformance, DeterministicSchedulesAndVerdicts) {
  for (Protocol p : {Protocol::kEesmr, Protocol::kSyncHotStuff,
                     Protocol::kPbft, Protocol::kMinBft}) {
    for (AttackKind a : adversary::all_attacks()) {
      SCOPED_TRACE(std::string(harness::protocol_name(p)) + " under " +
                   adversary::attack_name(a));
      const Cell first = run_cell(p, a, 0x5eed);
      const Cell second = run_cell(p, a, 0x5eed);
      EXPECT_TRUE(first == second);
    }
  }
}

// ---------------------------------------------------------------------------
// EESMR deep catch-up recovers without checkpoints (round fast-forward)
// ---------------------------------------------------------------------------

// Steady-state acceptance is round-gated (accepted_round_ + 1); a replica
// behind by many rounds used to buffer live proposals forever, with
// checkpoint state transfer the only way back (the old ROADMAP gap).
// try_accept now fast-forwards: once chain sync integrates a live
// proposal's full ancestry and it extends the lock, the replica
// re-anchors on it directly. This test used to pin the stall; it now
// asserts recovery both with and without checkpoints.
TEST(AdversaryRegression, EesmrDeepCatchupRecoversWithoutCheckpoints) {
  const auto run_recovery = [](std::uint64_t checkpoint_interval) {
    ClusterConfig cfg;
    cfg.protocol = Protocol::kEesmr;
    cfg.n = 4;
    cfg.f = 1;
    cfg.seed = 11;
    cfg.checkpoint_interval = checkpoint_interval;
    adversary::AdversarySpec::CrashRecover cr;
    cr.node = 3;  // never the view-1 leader: honest progress continues
    cr.crash_at = sim::milliseconds(300);
    cr.recover_at = sim::milliseconds(1200);
    cfg.adversary.crashes.push_back(cr);
    harness::Cluster cluster(cfg);
    const RunResult r = cluster.run_until_commits(40, sim::seconds(60));
    return std::make_pair(r, cluster.replica(3).committed_height());
  };

  // Without checkpoints: the recovered replica fast-forwards onto the
  // live round once chain sync fills the gap, then commits alongside
  // everyone else. Safety is unaffected.
  const auto [recovered, recovered_committed] = run_recovery(0);
  EXPECT_TRUE(recovered.safety_ok());
  EXPECT_GE(recovered.min_committed(), 40u);
  EXPECT_GT(recovered_committed, 20u)
      << "deep catch-up stalled without checkpoints: the round "
         "fast-forward in EesmrReplica::try_accept regressed";

  // With checkpoints: state transfer carries it past the gap as before.
  const auto [healthy, recovered_committed_ckpt] = run_recovery(8);
  EXPECT_TRUE(healthy.safety_ok());
  EXPECT_GT(recovered_committed_ckpt, 20u);
}

// ---------------------------------------------------------------------------
// A later-view vote for an older block never completes its certificate
// ---------------------------------------------------------------------------

// Drops every vote frame a replica sends while it is still in view 1,
// except on the one link `keep_from` -> `keep_to`, until heal() (GST).
// Vote loss before GST is inside PBFT's model. Sync HotStuff assumes
// synchrony, so there it only stages the same bucket state.
class DropViewOneVotes final : public net::FaultInjector {
 public:
  DropViewOneVotes(harness::Cluster& cluster, NodeId keep_from, NodeId keep_to)
      : cluster_(cluster), keep_from_(keep_from), keep_to_(keep_to) {}

  void heal() { healed_ = true; }

  net::FaultVerdict on_delivery(NodeId from, NodeId to, energy::Stream stream,
                                std::size_t /*bytes*/) override {
    net::FaultVerdict v;
    v.drop = !healed_ && stream == energy::Stream::kVote &&
             cluster_.replica(from).current_view() == 1 &&
             !(from == keep_from_ && to == keep_to_);
    return v;
  }

 private:
  harness::Cluster& cluster_;
  NodeId keep_from_;
  NodeId keep_to_;
  bool healed_ = false;
};

/// Events named `name` traced by `node` (by any node for kNoNode),
/// counting only those whose `height` argument is 1 when `height_one`.
std::size_t traced(const obs::Tracer& tracer, const char* name, NodeId node,
                   bool height_one) {
  std::size_t n = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.name != name || (node != kNoNode && ev.node != node)) continue;
    bool counted = !height_one;
    for (const auto& [key, value] : ev.args) {
      if (key == "height" && value == exp::Json(1)) counted = true;
    }
    if (counted) ++n;
  }
  return n;
}

/// Stage the mixed-view bucket and return how many height-1 blocks node 0
/// certified. The view-1 leader's first block B1 gathers too few view-1
/// votes at node 0 (only `keep_from`'s get through), and the replicas
/// give up on view 1. At the first blame the network heals and node 3
/// floods its signed `vote_type` vote for B1 in view 2. Node 0 buffers
/// that vote and handles it first when it enters view 2, where it
/// completes B1's bucket; combining the two views' votes into one
/// certificate used to throw. The run goes on for `settle` after node 0
/// enters view 2.
std::size_t run_cross_view_vote(Protocol protocol, smr::MsgType vote_type,
                                std::uint64_t vote_round, NodeId keep_from,
                                sim::Duration settle) {
  obs::Tracer tracer;
  ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 3;
  cfg.channels[energy::Stream::kVote] =
      net::DisseminationPolicy::routed_unicast();
  cfg.tracer = &tracer;
  harness::Cluster cluster(cfg);
  DropViewOneVotes drop(cluster, keep_from, /*keep_to=*/0);
  cluster.network().set_fault_injector(&drop);

  // B1 as the view-1 leader builds it: the first filler batch of an
  // identically configured, never-started node.
  harness::Cluster twin(cfg);
  smr::Block b1;
  b1.parent = smr::genesis_hash();
  b1.height = 1;
  b1.view = 1;
  b1.round = 1;
  b1.proposer = cluster.replica(0).leader_of(1);
  b1.cmds = twin.replica(b1.proposer).mempool().next_batch(cfg.batch_size);

  const auto run_until = [&](const auto& done) {
    while (!done()) {
      if (cluster.scheduler().now() > sim::seconds(5)) return false;
      cluster.run_for(sim::milliseconds(1));
    }
    return true;
  };
  if (!run_until([&] { return traced(tracer, "blame", kNoNode, false) > 0; })) {
    ADD_FAILURE() << "nobody gave up on view 1";
    return 0;
  }
  EXPECT_EQ(cluster.replica(0).current_view(), 1u);
  EXPECT_TRUE(cluster.replica(0).store().contains(b1.hash()));

  smr::Msg vote;
  vote.type = vote_type;
  vote.view = 2;
  vote.round = vote_round;
  vote.author = 3;
  vote.data = b1.hash();
  const auto keys = crypto::Keyring::simulated(cfg.scheme, cfg.n, cfg.seed);
  vote.sig = keys->signer(3).sign(vote.preimage());
  Writer frame;  // flood framing: origin, seq, dest, flags, stream
  frame.u32(3);
  frame.u64(1u << 20);
  frame.u32(kNoNode);
  frame.u8(0);
  frame.u8(static_cast<std::uint8_t>(energy::Stream::kVote));
  frame.raw(vote.encode());
  drop.heal();
  cluster.network().transmit(3, frame.take(), energy::Stream::kVote);

  if (!run_until([&] { return cluster.replica(0).current_view() >= 2; })) {
    ADD_FAILURE() << "node 0 never entered view 2";
    return 0;
  }
  const RunResult r = cluster.run_for(settle);
  EXPECT_TRUE(r.safety_ok());
  return traced(tracer, "certify", 0, true);
}

// PBFT: node 0 holds its own and node 1's view-1 prepares for B1, one
// short of 2f+1. Node 3's view-2 prepare for B1 used to complete the
// bucket, and make_cert threw out of Cluster::run_for. Only the view-2
// block at height 1 may certify at node 0.
TEST(AdversaryRegression, PbftCrossViewPrepareIsNotCounted) {
  std::size_t certifies = 0;
  EXPECT_NO_THROW(certifies = run_cross_view_vote(
                      Protocol::kPbft, smr::MsgType::kPrepare, 1,
                      /*keep_from=*/1, sim::milliseconds(500)));
  EXPECT_EQ(certifies, 1u);
}

// Sync HotStuff: with every view-1 vote lost, node 0 holds only its own
// vote for B1, and node 3's view-2 vote would make f+1. The lost votes
// break Sync HotStuff's synchrony: every node commits B1 2Δ after voting,
// and the view-2 leader re-proposes height 1 from genesis. So the run
// stops once node 0 has entered view 2 and handled the buffered vote,
// before that out-of-model conflicting commit, and nothing at height 1
// may have certified.
TEST(AdversaryRegression, SyncHotStuffCrossViewVoteIsNotCounted) {
  std::size_t certifies = 0;
  EXPECT_NO_THROW(certifies = run_cross_view_vote(
                      Protocol::kSyncHotStuff, smr::MsgType::kVote, 0,
                      /*keep_from=*/kNoNode, /*settle=*/0));
  EXPECT_EQ(certifies, 0u);
}

// ---------------------------------------------------------------------------
// Chase-the-leader with checkpoints, across seeds
// ---------------------------------------------------------------------------

// The matrix cells stop at 30 commits; a 10 s chase with checkpoints
// every 8 blocks runs many view changes and state transfers into later
// views. A replica raised to a later view by state transfer once kept
// its old view's blame, and its next blame certificate mixed views:
// QuorumCert::combine threw out of Cluster::run_for (Sync HotStuff and
// OptSync, every seed).
TEST(AdversaryRegression, ChaseLeaderWithCheckpointsAcrossSeeds) {
  for (Protocol p : {Protocol::kEesmr, Protocol::kSyncHotStuff,
                     Protocol::kOptSync, Protocol::kPbft, Protocol::kMinBft}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(std::string(harness::protocol_name(p)) + " seed " +
                   std::to_string(seed));
      ClusterConfig cfg;
      cfg.protocol = p;
      cfg.n = p == Protocol::kMinBft ? 3 : 4;
      cfg.f = 1;
      cfg.seed = seed;
      cfg.checkpoint_interval = 8;
      cfg.clients = 2;
      // Half the run: the chase crashes a leader every 400 ms, and the
      // slowest protocol here (MinBFT's 10Δ timeouts) stalls about 2 s.
      cfg.adversary.stall_bound = sim::seconds(5);
      adversary::apply_attack(cfg, AttackKind::kChaseLeader);
      harness::Cluster cluster(cfg);
      RunResult r;
      EXPECT_NO_THROW(r = cluster.run_for(sim::seconds(10)));
      EXPECT_TRUE(r.safety_ok());
      EXPECT_EQ(r.safety_violations, 0u);
      EXPECT_TRUE(r.liveness_ok())
          << "stall_ms=" << sim::to_milliseconds(r.max_commit_stall);
      EXPECT_GE(r.min_committed(), kTarget);
    }
  }
}

// ---------------------------------------------------------------------------
// Dedup state stays bounded under adversarial duplication/reordering
// ---------------------------------------------------------------------------

// Dup-heavy, reordering link schedules plus client retransmissions must
// not grow the flood seen-windows or the exactly-once reply cache past
// their bounds, and execution must stay exactly-once (safety + all
// requests accepted).
TEST(AdversaryDedup, DupReorderSchedulesKeepDedupStateBounded) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kEesmr;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 23;
  cfg.checkpoint_interval = 8;
  cfg.clients = 2;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 2;
  cfg.workload.max_requests = 40;
  cfg.client_retry = sim::milliseconds(120);  // retransmits probe the
                                              // reply-cache replay path
  adversary::AdversarySpec::LinkFault lf;
  lf.duplicate = 0.6;
  lf.reorder = 0.5;
  lf.reorder_delay = cfg.hop_delay;
  cfg.adversary.link_faults.push_back(lf);

  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(80, sim::seconds(120));

  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_EQ(r.requests_accepted, 80u);
  EXPECT_GT(r.faults_duplicated, 0u);

  for (std::size_t i = 0; i < r.footprints.size(); ++i) {
    if (!r.correct[i]) continue;
    // Seen-window tails are bounded per origin by force-compaction.
    EXPECT_LE(r.footprints[i].flood_dedup_tail,
              net::FloodRouter::SeenWindow::kMaxTail * r.footprints.size())
        << "node " << i;
    // Reply cache GC'd at checkpoint-taking points: O(interval · load),
    // far below total executed commands.
    EXPECT_LE(r.footprints[i].executed_entries, 64u) << "node " << i;
  }
}

// Replay flood: one (client, req_id) re-submitted forever executes once,
// and the admission path sheds the copies without growing pool state.
TEST(AdversaryDedup, ReplayFloodExecutesOnceAndStaysBounded) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kEesmr;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 31;
  cfg.checkpoint_interval = 8;
  cfg.clients = 1;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 1;
  cfg.workload.max_requests = 30;
  cfg.client_pending_cap = 8;
  adversary::AdversarySpec::ByzClient bc;
  bc.kind = adversary::AdversarySpec::ByzClient::Kind::kReplayFlood;
  bc.interval = sim::milliseconds(20);
  cfg.adversary.clients.push_back(bc);

  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(30, sim::seconds(120));

  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.requests_accepted, 30u);
  EXPECT_GT(r.byz_requests_sent, 10u);
  // The replayed request is ONE operation: every honest replica's
  // execution log contains it exactly once however many copies arrived.
  for (NodeId i = 0; i < 4; ++i) {
    const auto& replica = cluster.replica(i);
    std::uint64_t replay_executions = 0;
    for (const smr::Block& b : replica.log()) {
      for (const smr::Command& cmd : b.cmds) {
        const auto req = smr::ClientRequest::decode(cmd.data);
        if (req.has_value() && req->client >= 5) ++replay_executions;
      }
    }
    // Retained log only (checkpoints truncate), so <= 1; duplicates
    // would show up as > 1 at some height.
    EXPECT_LE(replay_executions, 1u) << "replica " << i;
    EXPECT_LE(r.footprints[i].mempool_pending, 16u);
  }
}

// ---------------------------------------------------------------------------
// Byzantine checkpoint attacks (the PR 5 follow-ups): forged attestation
// digests and withheld snapshots against the state-transfer path.
// ---------------------------------------------------------------------------

// A Byzantine replica broadcasts checkpoint attestations whose digest is
// corrupted (its local tally stays honest, so it cannot poison itself).
// The forged digest can never gather f more matching attestations, so no
// certificate forms over it; honest checkpoints keep stabilizing from
// the f+1 honest attestations, and a recovering replica state-transfers
// from an HONEST snapshot — its digest check rejects the forger's bytes.
TEST(AdversaryCheckpoint, ForgedDigestNeverCertifiesOrServesRecovery) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kEesmr;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 0xf06d;
  cfg.checkpoint_interval = 8;
  cfg.clients = 1;
  cfg.workload.max_requests = 40;
  adversary::AdversarySpec::CheckpointAttack atk;
  atk.node = 1;
  atk.forge_digest = true;
  cfg.adversary.checkpoint_attacks.push_back(atk);
  // A crashed-then-recovered replica forces the state-transfer path to
  // run against the forger's attestations.
  adversary::AdversarySpec::CrashRecover cr;
  cr.node = 3;
  cr.crash_at = sim::milliseconds(400);
  cr.recover_at = sim::milliseconds(1600);
  cfg.adversary.crashes.push_back(cr);

  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(60, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GE(r.min_committed(), 60u);
  // Checkpoints still stabilized (log truncation happened) despite the
  // forged stream: the honest f+1 attestation set certifies without
  // node 1's garbage.
  std::uint64_t max_ckpts = 0;
  for (const auto& fp : r.footprints) {
    max_ckpts = std::max(max_ckpts, fp.checkpoints_taken);
  }
  EXPECT_GT(max_ckpts, 0u);
  // The recovered replica is back on the live chain.
  EXPECT_GT(cluster.replica(3).committed_height(), 20u);
}

// A Byzantine replica never serves snapshot requests. The requester's
// provider rotation must route around it: the recovering node completes
// state transfer from somebody else and catches up anyway.
TEST(AdversaryCheckpoint, WithheldSnapshotsRouteAroundToHonestProvider) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kEesmr;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 0x5a0b;
  cfg.checkpoint_interval = 8;
  cfg.clients = 1;
  cfg.workload.max_requests = 40;
  adversary::AdversarySpec::CheckpointAttack atk;
  atk.node = 1;
  atk.withhold_snapshots = true;
  cfg.adversary.checkpoint_attacks.push_back(atk);
  adversary::AdversarySpec::CrashRecover cr;
  cr.node = 3;
  cr.crash_at = sim::milliseconds(400);
  cr.recover_at = sim::milliseconds(1600);
  cfg.adversary.crashes.push_back(cr);

  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(60, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 60u);
  EXPECT_GT(cluster.replica(3).committed_height(), 20u);
  // Both attacks are deterministic: identical seeds reproduce the run.
  harness::Cluster again(cfg);
  const RunResult r2 = again.run_until_commits(60, sim::seconds(120));
  EXPECT_EQ(r.bytes_transmitted, r2.bytes_transmitted);
  EXPECT_EQ(r.end_time, r2.end_time);
}

}  // namespace
}  // namespace eesmr
