// Checkpoint subsystem: certificate wire formats and verification, the
// signature tracker, bounded replica memory under sustained load (log
// truncation + dedup-set GC at the low-water mark), snapshot state
// transfer for late joiners (and a rejected state response that must not
// wedge it), and the admission-control satellites.
#include "src/checkpoint/checkpoint.hpp"

#include <gtest/gtest.h>

#include "src/common/serde.hpp"
#include "src/crypto/sha256.hpp"
#include "src/harness/cluster.hpp"
#include "src/smr/app.hpp"
#include "tests/cert_probe.hpp"

namespace eesmr::checkpoint {
namespace {

CheckpointId make_id(std::uint64_t height, const std::string& tag) {
  CheckpointId id;
  id.height = height;
  id.block = Bytes(32, 0x11);
  id.digest = to_bytes(tag);
  return id;
}

TEST(CheckpointWire, IdAndCertRoundTrip) {
  CheckpointId id = make_id(64, "digest-bytes");
  EXPECT_EQ(CheckpointId::decode(id.encode()), id);

  CheckpointCert cert;
  cert.id = id;
  cert.sigs = {{0, to_bytes(std::string("s0"))},
               {2, to_bytes(std::string("s2"))}};
  const CheckpointCert back = CheckpointCert::decode(cert.encode());
  EXPECT_EQ(back.id, cert.id);
  EXPECT_EQ(back.sigs, cert.sigs);
}

TEST(CheckpointWire, MsgAndSnapshotPayloadRoundTrip) {
  CheckpointMsg m;
  m.id = make_id(32, "d");
  m.sig = to_bytes(std::string("signature"));
  const CheckpointMsg back = CheckpointMsg::decode(m.encode());
  EXPECT_EQ(back.id, m.id);
  EXPECT_EQ(back.sig, m.sig);

  SnapshotPayload p;
  p.app_snapshot = to_bytes(std::string("app-state"));
  p.executed_cmds = 96;
  p.watermarks = {{5, 17}, {6, 3}};
  p.executed = {ExecutedEntry{5, 18, 30, to_bytes(std::string("ok"))}};
  const SnapshotPayload q = SnapshotPayload::decode(p.encode());
  EXPECT_EQ(q.app_snapshot, p.app_snapshot);
  EXPECT_EQ(q.executed_cmds, p.executed_cmds);
  EXPECT_EQ(q.watermarks, p.watermarks);
  EXPECT_EQ(q.executed, p.executed);
}

TEST(CheckpointCertVerify, AcceptsQuorumRejectsForgeries) {
  auto ring = crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, 4, 7);
  CheckpointId id = make_id(16, "state");
  CheckpointCert cert;
  cert.id = id;
  for (NodeId i = 0; i < 2; ++i) {
    cert.sigs.emplace_back(i, ring->signer(i).sign(id.preimage()));
  }
  // The checkpoint quorum is f+1: 2 at f = 1, 3 at f = 2.
  smr::ProbeNode f1(smr::probe_config(4, 1, ring));
  smr::ProbeNode f2(smr::probe_config(4, 2, ring));
  EXPECT_TRUE(f1.replica.verify_checkpoint_cert(cert));
  EXPECT_FALSE(f2.replica.verify_checkpoint_cert(cert));  // below quorum

  // Tampered digest: signatures no longer cover the preimage.
  CheckpointCert tampered = cert;
  tampered.id.digest = to_bytes(std::string("forged"));
  EXPECT_FALSE(f1.replica.verify_checkpoint_cert(tampered));

  // Duplicate author cannot double-count.
  CheckpointCert dup = cert;
  dup.sigs[1] = dup.sigs[0];
  EXPECT_FALSE(f1.replica.verify_checkpoint_cert(dup));

  // A client-range key must not attest replica state.
  CheckpointCert outsider = cert;
  outsider.sigs[1] = {3, ring->signer(3).sign(id.preimage())};
  EXPECT_TRUE(f1.replica.verify_checkpoint_cert(outsider));
  smr::ProbeNode n3(smr::probe_config(3, 1, ring));
  // Id 3 is outside the replica range of n = 3.
  EXPECT_FALSE(n3.replica.verify_checkpoint_cert(outsider));
}

TEST(CheckpointManager, StabilizesAtQuorumOncePerHeight) {
  CheckpointManager mgr(/*interval=*/8, /*quorum=*/2);
  const CheckpointId id = make_id(8, "d8");
  const Bytes sig = to_bytes(std::string("s"));
  EXPECT_FALSE(mgr.add_signature(0, id, sig).has_value());
  EXPECT_FALSE(mgr.add_signature(0, id, sig).has_value());  // dup author
  const auto cert = mgr.add_signature(1, id, sig);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->id.height, 8u);
  EXPECT_EQ(cert->sigs.size(), 2u);
  EXPECT_EQ(mgr.stable_height(), 8u);
  // Stale heights are ignored after stabilization.
  EXPECT_FALSE(mgr.add_signature(2, make_id(4, "d4"), sig).has_value());
  // A divergent digest at the same height can never join the tally of
  // the honest one (and the height is already stable anyway).
  EXPECT_FALSE(mgr.add_signature(3, make_id(8, "evil"), sig).has_value());
}

TEST(CheckpointManager, EquivocatingSignerCountsOnce) {
  CheckpointManager mgr(8, 2);
  const Bytes sig = to_bytes(std::string("s"));
  EXPECT_FALSE(mgr.add_signature(0, make_id(8, "a"), sig).has_value());
  // Same author, different digest for the same height: rejected, so a
  // lone Byzantine replica can never stabilize anything by itself.
  EXPECT_FALSE(mgr.add_signature(0, make_id(8, "b"), sig).has_value());
  EXPECT_FALSE(mgr.add_signature(1, make_id(8, "b"), sig).has_value());
  // The honest digest still stabilizes with a second honest vote.
  EXPECT_TRUE(mgr.add_signature(2, make_id(8, "a"), sig).has_value());
}

TEST(CheckpointManager, ByzantineHeightFloodCannotWedgeTallies) {
  // One replica floods signed checkpoint ids at hundreds of distinct
  // absurd heights. Each author holds exactly one tally seat (its
  // latest vote), so the flood occupies one slot and honest
  // stabilization proceeds untouched.
  CheckpointManager mgr(8, 2);
  const Bytes sig = to_bytes(std::string("s"));
  for (std::uint64_t h = 1'000'000; h < 1'000'400; ++h) {
    EXPECT_FALSE(mgr.add_signature(3, make_id(h, "junk"), sig).has_value());
  }
  EXPECT_LE(mgr.tally_heights(), 2u);  // the flood's seat, at most
  EXPECT_FALSE(mgr.add_signature(0, make_id(8, "good"), sig).has_value());
  EXPECT_TRUE(mgr.add_signature(1, make_id(8, "good"), sig).has_value());
  EXPECT_EQ(mgr.stable_height(), 8u);
}

TEST(CheckpointManager, NewerVoteObsoletesOlderHeight) {
  // Authors sign monotonically rising heights; a straggler vote for an
  // old height must not linger once the author moved on — but a quorum
  // at the newer height still forms from the moved seats.
  CheckpointManager mgr(8, 2);
  const Bytes sig = to_bytes(std::string("s"));
  EXPECT_FALSE(mgr.add_signature(0, make_id(8, "d8"), sig).has_value());
  EXPECT_FALSE(mgr.add_signature(0, make_id(16, "d16"), sig).has_value());
  // Author 0's height-8 vote is gone: a second height-8 vote alone
  // cannot stabilize 8 anymore.
  EXPECT_FALSE(mgr.add_signature(1, make_id(8, "d8"), sig).has_value());
  EXPECT_TRUE(mgr.add_signature(2, make_id(16, "d16"), sig).has_value());
  EXPECT_EQ(mgr.stable_height(), 16u);
}

TEST(CheckpointManager, ReorderedOlderVoteCannotEvictNewerOne) {
  // Adversarial delays can deliver an author's height-16 vote before
  // its height-8 one. The late older vote must be ignored — evicting
  // the newer one would lose it for good (checkpoint messages are
  // never retransmitted) and could cost height 16 its quorum.
  CheckpointManager mgr(8, 2);
  const Bytes sig = to_bytes(std::string("s"));
  EXPECT_FALSE(mgr.add_signature(0, make_id(16, "d16"), sig).has_value());
  EXPECT_FALSE(mgr.add_signature(0, make_id(8, "d8"), sig).has_value());
  // Author 0 still seated at 16: one more vote there stabilizes it.
  EXPECT_TRUE(mgr.add_signature(1, make_id(16, "d16"), sig).has_value());
  EXPECT_EQ(mgr.stable_height(), 16u);
}

TEST(CheckpointManager, ScheduleAlignsToIntervalMultiples) {
  CheckpointManager mgr(32, 2);
  EXPECT_EQ(mgr.next_at(), 32u);
  EXPECT_TRUE(mgr.due(32));
  mgr.advance_schedule(32);
  EXPECT_EQ(mgr.next_at(), 64u);
  // Overshooting a boundary mid-block lands on the next multiple — the
  // same value a replica restoring from executed_cmds=35 computes.
  mgr.advance_schedule(70);
  EXPECT_EQ(mgr.next_at(), 96u);
}

TEST(CheckpointManager, ServesOnlyTheStableSnapshot) {
  CheckpointManager mgr(8, 2);
  const CheckpointId id = make_id(8, "d");
  smr::Block b;
  b.height = 8;
  mgr.record_local(id, to_bytes(std::string("payload")), b);
  EXPECT_EQ(mgr.payload_for(8), nullptr);  // not stable yet
  const Bytes sig = to_bytes(std::string("s"));
  mgr.add_signature(0, id, sig);
  mgr.add_signature(1, id, sig);
  ASSERT_NE(mgr.payload_for(8), nullptr);
  EXPECT_EQ(to_string(*mgr.payload_for(8)), "payload");
  ASSERT_NE(mgr.block_for(8), nullptr);
  EXPECT_EQ(mgr.block_for(8)->height, 8u);
  EXPECT_EQ(mgr.payload_for(4), nullptr);  // only the stable height
}

// ---------------------------------------------------------------------------
// Replica-level: a rejected state response must not wedge state transfer
// ---------------------------------------------------------------------------

/// Withholds every outbound message of the probe it is installed on (it
/// has no peers) and records the height each kStateRequest asks for.
class StateRequestLog final : public smr::OutboundPolicy {
 public:
  bool allow(const smr::Msg& m, NodeId) override {
    if (m.type == smr::MsgType::kStateRequest) {
      Reader r(m.data);
      heights.push_back(r.u64());
    }
    return false;
  }
  std::vector<std::uint64_t> heights;
};

/// A probe replica 0 of n = 4, f = 1, checkpointing every 16 commands.
struct StateTransferProbe {
  StateTransferProbe()
      : ring(crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, 4, 7)),
        node([this] {
          smr::ReplicaConfig cfg = smr::probe_config(4, 1, ring);
          cfg.checkpoint_interval = 16;
          return cfg;
        }()) {
    node.replica.set_outbound_policy(&log);
  }

  void deliver(NodeId from, const smr::Msg& m) {
    net::FloodClient& client = node.replica;
    client.on_deliver(from, m.encode());
  }
  /// Replica 1's signed kStateResponse carrying `cert`, `root`, `payload`.
  void respond(const CheckpointCert& cert, const smr::Block& root,
               const SnapshotPayload& payload) {
    Writer w;
    w.bytes(cert.encode());
    w.bytes(root.encode());
    w.bytes(payload.encode());
    smr::Msg m;
    m.type = smr::MsgType::kStateResponse;
    m.view = 1;
    m.author = 1;
    m.data = w.take();
    m.sig = ring->signer(1).sign(m.preimage());
    deliver(1, m);
  }
  /// Replicas 1 and 2 (f+1) attest `id`: the probe learns a stable
  /// certificate for it.
  void attest(const CheckpointId& id) {
    for (NodeId i = 1; i <= 2; ++i) {
      CheckpointMsg cp;
      cp.id = id;
      cp.sig = ring->signer(i).sign(id.preimage());
      smr::Msg m;
      m.type = smr::MsgType::kCheckpoint;
      m.view = 1;
      m.author = i;
      m.data = cp.encode();
      deliver(i, m);
    }
  }

  std::shared_ptr<crypto::Keyring> ring;
  smr::ProbeNode node;
  StateRequestLog log;
};

smr::Block checkpoint_block(std::uint64_t height) {
  smr::Block b;
  b.parent = Bytes(32, 0x44);
  b.height = height;
  b.view = 1;
  b.proposer = 0;
  return b;
}

TEST(StateTransfer, ForgedResponseDoesNotBlockALaterGenuineCheckpoint) {
  // A replica-signed response claiming a huge height with a certificate
  // no quorum signed: rejected at verification.
  StateTransferProbe p;
  CheckpointCert forged;
  forged.id = make_id(1'000'000, "forged");
  forged.sigs = {{1, Bytes(16, 0)}, {2, Bytes(16, 0)}};
  p.respond(forged, checkpoint_block(1'000'000), SnapshotPayload{});
  // A genuine certificate far above the probe's commits must still start
  // a transfer for its own height.
  CheckpointId genuine = make_id(64, "genuine");
  p.attest(genuine);
  EXPECT_EQ(p.log.heights, std::vector<std::uint64_t>{64});
  EXPECT_EQ(p.node.replica.state_transfers(), 0u);
}

TEST(StateTransfer, AppIncompatibleSnapshotDoesNotBlockItsCheckpoint) {
  // Certificate, block and digest all check out, but the app cannot
  // restore the snapshot: rejected after every cryptographic check.
  StateTransferProbe p;
  smr::KvStore app;
  p.node.replica.attach_app(&app);
  SnapshotPayload payload;
  payload.app_snapshot = to_bytes(std::string("not a kv snapshot"));
  const smr::Block root = checkpoint_block(64);
  CheckpointCert cert;
  cert.id.height = 64;
  cert.id.block = root.hash();
  cert.id.digest = crypto::sha256(payload.encode());
  for (NodeId i = 1; i <= 2; ++i) {
    cert.sigs.emplace_back(i, p.ring->signer(i).sign(cert.id.preimage()));
  }
  p.respond(cert, root, payload);
  EXPECT_EQ(p.node.replica.state_transfers(), 0u);
  // The same checkpoint, learned from attestations, still starts a
  // transfer (to be served by a signer with a usable snapshot).
  p.attest(cert.id);
  EXPECT_EQ(p.log.heights, std::vector<std::uint64_t>{64});
}

// ---------------------------------------------------------------------------
// Harness-level: bounded memory, state transfer, admission control
// ---------------------------------------------------------------------------

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;

TEST(CheckpointCluster, BoundedMemoryUnderSustainedLoad) {
  // Synthetic workload keeps every block full (batch_size commands), so
  // a checkpoint lands every interval/batch_size = 8 blocks. The
  // retained log and block store must stay O(interval); the disabled
  // run retains every committed block.
  auto run = [](std::uint64_t interval) {
    ClusterConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.batch_size = 4;
    cfg.checkpoint_interval = interval;
    cfg.seed = 11;
    Cluster cluster(cfg);
    return cluster.run_until_commits(60, sim::seconds(600));
  };
  const RunResult gc = run(32);
  const RunResult nogc = run(0);
  ASSERT_TRUE(gc.safety_ok());
  ASSERT_TRUE(nogc.safety_ok());
  ASSERT_GE(gc.min_committed(), 60u);
  ASSERT_GE(nogc.min_committed(), 60u);

  // Disabled: the log is the whole chain.
  EXPECT_EQ(nogc.max_retained_log(), nogc.max_committed());
  // Enabled: bounded by the checkpoint spacing (8 blocks) plus the
  // stabilization lag, far below the 60 committed blocks.
  EXPECT_GT(gc.max_committed(), gc.max_retained_log());
  EXPECT_LE(gc.max_retained_log(), 20u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_LE(gc.footprints[i].store_blocks,
              gc.footprints[i].retained_log + 8)
        << "node " << i;
    EXPECT_GT(gc.footprints[i].checkpoints_taken, 0u) << "node " << i;
    EXPECT_GT(gc.footprints[i].stable_height, 0u) << "node " << i;
    EXPECT_GT(gc.footprints[i].low_water_mark, 0u) << "node " << i;
  }
  // Checkpoint energy overhead exists but stays a modest fraction.
  EXPECT_GT(gc.total_energy_mj(), nogc.total_energy_mj() * 0.5);
}

TEST(CheckpointCluster, DedupSetsGarbageCollected) {
  // With real clients the exactly-once reply cache and the mempool's
  // committed-key set grow per accepted request; checkpoint GC must keep
  // them O(interval) while the disabled run grows with the run length.
  auto run = [](std::uint64_t interval) {
    ClusterConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.batch_size = 8;
    cfg.clients = 2;
    cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
    cfg.workload.outstanding = 4;
    cfg.checkpoint_interval = interval;
    cfg.seed = 5;
    Cluster cluster(cfg);
    return cluster.run_for(sim::seconds(40));
  };
  const RunResult gc = run(16);
  const RunResult nogc = run(0);
  ASSERT_TRUE(gc.safety_ok());
  ASSERT_GT(gc.requests_accepted, 100u);
  ASSERT_GT(nogc.requests_accepted, 100u);
  // Disabled: every accepted request leaves a cache entry + a key.
  EXPECT_GE(nogc.max_dedup_entries(), nogc.requests_accepted);
  // Enabled: two intervals of reply cache + the un-truncated tail.
  EXPECT_LT(gc.max_dedup_entries(), nogc.max_dedup_entries() / 2);
}

TEST(CheckpointCluster, FlowHookCacheBoundedByBlockStore) {
  // Request tracing caches the sampled requests of every block carrying
  // commands. Checkpoint truncation must drop those entries with their
  // blocks, and a state transfer must clear them, so the cache never
  // outgrows the block store. Replica 3 joins late and recovers by
  // state transfer.
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.batch_size = 4;
  cfg.clients = 2;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 4;
  cfg.checkpoint_interval = 16;
  cfg.client_retry = sim::milliseconds(500);
  cfg.late_starts.push_back({3, sim::seconds(5)});
  cfg.trace_requests = 8;
  cfg.seed = 23;
  Cluster cluster(cfg);
  std::size_t max_entries = 0;
  RunResult r;
  for (int slice = 0; slice < 120; ++slice) {
    r = cluster.run_for(sim::milliseconds(250));
    for (NodeId i = 0; i < 4; ++i) {
      const smr::ReplicaBase& rep = cluster.replica(i);
      ASSERT_LE(rep.prof_block_cache_entries(), rep.store().size())
          << "node " << i << " slice " << slice;
      max_entries = std::max(max_entries, rep.prof_block_cache_entries());
    }
  }
  ASSERT_TRUE(r.safety_ok());
  EXPECT_GE(r.footprints[3].state_transfers, 1u);
  EXPECT_GT(max_entries, 0u);
  // Far more blocks were committed than any cache ever held.
  EXPECT_GT(r.max_committed(), 2 * max_entries);
}

TEST(CheckpointCluster, LateJoinerCatchesUpViaStateTransfer) {
  // Replica 3 is off the air for the first 5 simulated seconds while the
  // others commit client requests past several checkpoints. Once online
  // it must fetch a snapshot (not replay the whole chain), land on the
  // identical application state, and then track the cluster.
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.batch_size = 4;
  cfg.clients = 2;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 4;
  cfg.workload.max_requests = 400;  // traffic persists past the join
  cfg.checkpoint_interval = 16;
  cfg.client_retry = sim::milliseconds(500);
  cfg.late_starts.push_back({3, sim::seconds(5)});
  cfg.seed = 23;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_for(sim::seconds(60));
  ASSERT_TRUE(r.safety_ok());
  EXPECT_GE(r.footprints[3].state_transfers, 1u);
  EXPECT_GT(r.max_recovery_latency, 0);
  // The joiner resumed FROM the checkpoint instead of replaying: its
  // retained log starts above its first low-water mark.
  EXPECT_GT(r.footprints[3].low_water_mark, 0u);
  // All requests done and the chain quiesced: every replica (including
  // the late joiner) must hold the identical application state.
  ASSERT_EQ(r.requests_accepted, 800u);  // 400 per client, 2 clients
  const Bytes digest0 = cluster.replica(0).app()->state_digest();
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.replica(i).app()->state_digest(), digest0)
        << "node " << i;
  }
  // And it keeps committing with the cluster after recovery.
  EXPECT_GE(r.footprints[3].committed_blocks,
            r.footprints[3].low_water_mark);
}

TEST(CheckpointCluster, SyncHotStuffCheckpointsToo) {
  // The subsystem lives in ReplicaBase: the baseline gets truncation and
  // certificates with zero protocol-specific code.
  ClusterConfig cfg;
  cfg.protocol = Protocol::kSyncHotStuff;
  cfg.n = 4;
  cfg.f = 1;
  cfg.batch_size = 4;
  cfg.checkpoint_interval = 32;
  cfg.seed = 3;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(40, sim::seconds(600));
  ASSERT_TRUE(r.safety_ok());
  ASSERT_GE(r.min_committed(), 40u);
  EXPECT_LE(r.max_retained_log(), 24u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_GT(r.footprints[i].stable_height, 0u) << "node " << i;
  }
}

TEST(CheckpointCluster, DeterministicWithCheckpointing) {
  auto run = [] {
    ClusterConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.batch_size = 4;
    cfg.checkpoint_interval = 16;
    cfg.seed = 99;
    Cluster cluster(cfg);
    return cluster.run_until_commits(30, sim::seconds(600));
  };
  const RunResult a = run(), b = run();
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_DOUBLE_EQ(a.total_energy_mj(), b.total_energy_mj());
  for (std::size_t i = 0; i < a.logs.size(); ++i) {
    EXPECT_EQ(a.logs[i], b.logs[i]) << "node " << i;
    EXPECT_EQ(a.footprints[i].stable_height, b.footprints[i].stable_height);
  }
}

TEST(AdmissionControl, MempoolCapacityShedsOpenLoopOverload) {
  // Open-loop Poisson far past saturation: with a bounded pool the
  // replicas shed load (drops counted) instead of queueing unboundedly.
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.batch_size = 4;
  cfg.clients = 2;
  cfg.workload.mode = client::WorkloadSpec::Mode::kOpenLoop;
  cfg.workload.rate_per_sec = 2000;
  cfg.mempool_capacity = 64;
  cfg.seed = 17;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_for(sim::seconds(5));
  ASSERT_TRUE(r.safety_ok());
  EXPECT_GT(r.requests_dropped, 0u);
  EXPECT_GT(r.requests_accepted, 0u);  // shedding, not starving
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_LE(r.footprints[i].mempool_pending, 64u) << "node " << i;
  }
}

TEST(AdmissionControl, PerClientCapLimitsFloodingClient) {
  // One client floods unique req_ids open-loop; the per-client cap must
  // bound its pool share and count the rejections.
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.batch_size = 1;
  cfg.clients = 1;
  cfg.workload.mode = client::WorkloadSpec::Mode::kOpenLoop;
  cfg.workload.rate_per_sec = 2000;
  cfg.client_pending_cap = 8;
  cfg.seed = 29;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_for(sim::seconds(5));
  ASSERT_TRUE(r.safety_ok());
  EXPECT_GT(r.requests_rate_limited, 0u);
  EXPECT_GT(r.requests_accepted, 0u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_LE(r.footprints[i].mempool_pending, 8u) << "node " << i;
  }
}

}  // namespace
}  // namespace eesmr::checkpoint
