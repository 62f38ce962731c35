// Robustness sweep: decoding arbitrary bytes (Byzantine wire data) must
// either succeed or throw SerdeError / std::invalid_argument — never
// crash, never leak unbounded memory. Mutated-valid inputs probe the
// interesting boundary cases.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/checkpoint/checkpoint.hpp"
#include "src/common/serde.hpp"
#include "src/crypto/agg.hpp"
#include "src/crypto/sha256.hpp"
#include "src/sim/rng.hpp"
#include "src/smr/block.hpp"
#include "src/smr/membership.hpp"
#include "src/smr/message.hpp"
#include "src/smr/request.hpp"
#include "tests/cert_probe.hpp"

namespace eesmr {
namespace {

template <typename Fn>
void expect_no_crash(Fn&& decode, BytesView data) {
  try {
    decode(data);
  } catch (const SerdeError&) {
  } catch (const std::invalid_argument&) {
  }
  // Any other exception type (or a crash) fails the test by escaping.
}

TEST(FuzzDecode, RandomBytes) {
  sim::Rng rng(0xf22d);
  for (int iter = 0; iter < 3000; ++iter) {
    Bytes junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    expect_no_crash([](BytesView d) { (void)smr::Block::decode(d); }, junk);
    expect_no_crash([](BytesView d) { (void)smr::Msg::decode(d); }, junk);
    expect_no_crash([](BytesView d) { (void)smr::QuorumCert::decode(d); },
                    junk);
    // Checkpoint / state-transfer wire formats (kCheckpoint payloads,
    // certificates, snapshot payloads).
    expect_no_crash(
        [](BytesView d) { (void)checkpoint::CheckpointMsg::decode(d); },
        junk);
    expect_no_crash(
        [](BytesView d) { (void)checkpoint::CheckpointCert::decode(d); },
        junk);
    expect_no_crash(
        [](BytesView d) { (void)checkpoint::SnapshotPayload::decode(d); },
        junk);
    // PR 10 wire formats: membership policies and aggregate certificates.
    expect_no_crash(
        [](BytesView d) { (void)smr::MembershipPolicy::decode(d); }, junk);
    expect_no_crash(
        [](BytesView d) { (void)smr::MembershipPolicy::decode_command(d); },
        junk);
    expect_no_crash(
        [](BytesView d) { (void)smr::AcceptanceCert::decode(d); }, junk);
  }
}

TEST(FuzzDecode, MutatedValidCheckpointMessages) {
  // Round-trip a realistic kCheckpoint payload, certificate and
  // state-transfer snapshot, then flip/truncate: decode must never
  // crash, and a surviving certificate must never verify (by a
  // replica's rules) for a tampered preimage.
  auto ring = crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, 6, 9);
  checkpoint::SnapshotPayload payload;
  payload.app_snapshot = Bytes(40, 0x77);
  payload.executed_cmds = 128;
  payload.watermarks = {{4, 9}, {5, 2}};
  payload.executed = {
      checkpoint::ExecutedEntry{4, 10, 30, to_bytes(std::string("ok"))}};
  const Bytes payload_bytes = payload.encode();

  checkpoint::CheckpointId id;
  id.height = 32;
  id.block = Bytes(32, 0x21);
  id.digest = crypto::sha256(payload_bytes);
  checkpoint::CheckpointCert cert;
  cert.id = id;
  for (NodeId i = 0; i < 2; ++i) {
    cert.sigs.emplace_back(i, ring->signer(i).sign(id.preimage()));
  }
  checkpoint::CheckpointMsg cp;
  cp.id = id;
  cp.sig = cert.sigs[0].second;
  smr::ProbeNode node(smr::probe_config(6, 1, ring));
  ASSERT_TRUE(node.replica.verify_checkpoint_cert(cert));

  const std::vector<Bytes> corpora = {cp.encode(), cert.encode(),
                                      payload_bytes};
  sim::Rng rng(0xc4e0);
  for (int iter = 0; iter < 3000; ++iter) {
    Bytes mutated = corpora[iter % corpora.size()];
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    if (rng.chance(0.3)) mutated.resize(rng.below(mutated.size() + 1));
    expect_no_crash(
        [](BytesView d) { (void)checkpoint::CheckpointMsg::decode(d); },
        mutated);
    expect_no_crash(
        [](BytesView d) { (void)checkpoint::SnapshotPayload::decode(d); },
        mutated);
    try {
      const auto qc = checkpoint::CheckpointCert::decode(mutated);
      if (node.replica.verify_checkpoint_cert(qc)) {
        // Only acceptable survivor: a mutation confined to signature
        // padding of the simulated scheme with the id intact.
        EXPECT_EQ(qc.id, id);
      }
    } catch (const SerdeError&) {
    }
  }
}

TEST(FuzzDecode, CheckpointLengthPrefixBombRejected) {
  // A kCheckpoint with a 4 GiB inner-length prefix must not allocate.
  Writer w;
  w.u32(0xffffffffu);
  expect_no_crash(
      [](BytesView d) { (void)checkpoint::CheckpointMsg::decode(d); },
      w.buffer());
  expect_no_crash(
      [](BytesView d) { (void)checkpoint::SnapshotPayload::decode(d); },
      w.buffer());
  // Hostile signature counts in certificates are clamped, not reserved.
  Writer c;
  c.bytes(checkpoint::CheckpointId{}.encode());
  c.u32(0xffffffffu);
  expect_no_crash(
      [](BytesView d) { (void)checkpoint::CheckpointCert::decode(d); },
      c.buffer());
}

TEST(FuzzDecode, MutatedValidBlock) {
  smr::Block b;
  b.parent = smr::genesis_hash();
  b.height = 1;
  b.view = 1;
  b.round = 3;
  b.cmds = {smr::Command{Bytes(20, 0x33)}};
  const Bytes valid = b.encode();

  sim::Rng rng(0xdead);
  for (int iter = 0; iter < 3000; ++iter) {
    Bytes mutated = valid;
    // Flip 1-4 random bytes and/or truncate.
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    if (rng.chance(0.3)) mutated.resize(rng.below(mutated.size() + 1));
    expect_no_crash([](BytesView d) { (void)smr::Block::decode(d); },
                    mutated);
  }
}

TEST(FuzzDecode, MutatedValidQuorumCert) {
  auto ring = crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, 4, 1);
  std::vector<smr::Msg> msgs;
  for (NodeId i = 0; i < 3; ++i) {
    smr::Msg m;
    m.type = smr::MsgType::kBlame;
    m.view = 2;
    m.author = i;
    m.sig = ring->signer(i).sign(m.preimage());
    msgs.push_back(m);
  }
  const smr::QuorumCert qc = smr::QuorumCert::combine(msgs);
  const Bytes valid = qc.encode();
  smr::ProbeNode node(smr::probe_config(4, 1, ring));
  ASSERT_TRUE(node.replica.verify_qc(qc, 3));

  sim::Rng rng(0xbeef);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes mutated = valid;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    if (rng.chance(0.3)) mutated.resize(rng.below(mutated.size() + 1));
    // Decode may throw; if it succeeds, verification must not crash and
    // a mutated certificate must never verify as a forged quorum for a
    // different preimage (same data may still verify: flipping padding
    // bytes inside a signature field of a *simulated* scheme can be
    // caught only by verify).
    try {
      const smr::QuorumCert m = smr::QuorumCert::decode(mutated);
      if (node.replica.verify_qc(m, 3)) {
        EXPECT_EQ(m.preimage(), qc.preimage());
      }
    } catch (const SerdeError&) {
    }
  }
}

// ---------------------------------------------------------------------------
// Frame-mutation fuzzer: flip/truncate/EXTEND bytes of *valid* encoded
// messages across every wire format a node accepts off the air, and
// assert decode+verify rejects cleanly — no crash, and no acceptance of
// semantically altered content (a mutation confined to signature padding
// of the simulated scheme may still verify, but then the covered
// preimage must be byte-identical to the original).
// ---------------------------------------------------------------------------

TEST(FuzzDecode, FrameMutationsAcrossAllWireFormatsRejectCleanly) {
  constexpr std::size_t kNodes = 6;  // replicas 0..3, clients 4..5
  auto ring = crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, kNodes,
                                         0xf00d);
  const auto signed_msg = [&](smr::MsgType type, std::uint64_t view,
                              std::uint64_t round, NodeId author,
                              Bytes data) {
    smr::Msg m;
    m.type = type;
    m.view = view;
    m.round = round;
    m.author = author;
    m.data = std::move(data);
    m.sig = ring->signer(author).sign(m.preimage());
    return m;
  };

  // One realistic specimen per wire format a replica or client decodes.
  smr::Block block;
  block.parent = smr::genesis_hash();
  block.height = 4;
  block.view = 1;
  block.round = 6;
  block.proposer = 1;
  block.cmds = {smr::Command{Bytes(24, 0x5a)}};

  smr::ClientRequest request;
  request.client = 4;
  request.req_id = 9;
  request.op = to_bytes(std::string("put k v"));
  request.sig = ring->signer(4).sign(request.preimage());

  smr::ClientReply reply;
  reply.client = 4;
  reply.req_id = 9;
  reply.result = to_bytes(std::string("ok"));
  reply.leader = 1;

  std::vector<smr::Msg> votes;
  for (NodeId i = 0; i < 2; ++i) {
    votes.push_back(signed_msg(smr::MsgType::kVote, 2, 0, i,
                               to_bytes(std::string("vote-target"))));
  }
  const smr::QuorumCert cert = smr::QuorumCert::combine(votes);

  const std::vector<smr::Msg> msgs = {
      signed_msg(smr::MsgType::kPropose, 1, 6, 1, block.encode()),
      signed_msg(smr::MsgType::kVote, 1, 0, 2,
                 to_bytes(std::string("voted-hash-bytes-32-aaaaaaaaaaaa"))),
      signed_msg(smr::MsgType::kBlame, 1, 0, 3, {}),
      signed_msg(smr::MsgType::kBlameQC, 1, 0, 0, cert.encode()),
      signed_msg(smr::MsgType::kRequest, 0, 9, 4, request.encode()),
      signed_msg(smr::MsgType::kReply, 1, 6, 2, reply.encode()),
      signed_msg(smr::MsgType::kSyncRequest, 1, 6, 3,
                 to_bytes(std::string("parent-hash-bytes-32-aaaaaaaaaaa"))),
  };
  std::vector<Bytes> corpora;
  for (const smr::Msg& m : msgs) corpora.push_back(m.encode());
  corpora.push_back(block.encode());
  corpora.push_back(request.encode());
  corpora.push_back(reply.encode());
  corpora.push_back(cert.encode());

  std::vector<Bytes> preimages;
  for (const smr::Msg& m : msgs) preimages.push_back(m.preimage());
  smr::ProbeNode node(smr::probe_config(4, 1, ring));
  ASSERT_TRUE(node.replica.verify_qc(cert, 2));

  sim::Rng mutator(0x3217a7e);
  for (int iter = 0; iter < 6000; ++iter) {
    const std::size_t which = iter % corpora.size();
    Bytes mutated = corpora[which];
    switch (mutator.below(3)) {
      case 0: {  // flip 1-4 bytes
        const std::size_t flips = 1 + mutator.below(4);
        for (std::size_t i = 0; i < flips; ++i) {
          mutated[mutator.below(mutated.size())] ^=
              static_cast<std::uint8_t>(1 + mutator.below(255));
        }
        break;
      }
      case 1:  // truncate
        mutated.resize(mutator.below(mutated.size() + 1));
        break;
      default: {  // extend with junk
        const std::size_t extra = 1 + mutator.below(32);
        for (std::size_t i = 0; i < extra; ++i) {
          mutated.push_back(static_cast<std::uint8_t>(mutator.next()));
        }
        break;
      }
    }

    // The replica's off-the-air path: Msg::decode, then signature
    // verification gated on an in-range author.
    try {
      const smr::Msg m = smr::Msg::decode(mutated);
      if (m.author < kNodes &&
          ring->verify(m.author, m.preimage(), m.sig)) {
        // Only padding-confined mutations of a signed corpus entry may
        // survive: the covered content must be byte-identical.
        bool identical = false;
        for (std::size_t i = 0; i < msgs.size(); ++i) {
          if (m.author == msgs[i].author && m.preimage() == preimages[i]) {
            identical = true;
            break;
          }
        }
        EXPECT_TRUE(identical)
            << "mutated frame accepted with altered content (corpus "
            << which << ")";
      }
    } catch (const SerdeError&) {
    } catch (const std::invalid_argument&) {
    }

    // Inner formats: never crash; a surviving client request must not
    // verify unless its signed content is untouched.
    expect_no_crash([](BytesView d) { (void)smr::Block::decode(d); },
                    mutated);
    expect_no_crash([](BytesView d) { (void)smr::ClientReply::decode(d); },
                    mutated);
    try {
      const auto req = smr::ClientRequest::decode(mutated);
      if (req.has_value() && req->client < kNodes &&
          ring->verify(req->client, req->preimage(), req->sig)) {
        EXPECT_EQ(req->preimage(), request.preimage());
      }
    } catch (const SerdeError&) {
    }
    try {
      const auto qc = smr::QuorumCert::decode(mutated);
      if (node.replica.verify_qc(qc, 2)) {
        smr::Msg probe;
        probe.type = qc.type;
        probe.view = qc.view;
        probe.round = qc.round;
        probe.data = qc.data;
        EXPECT_EQ(probe.preimage(), votes.front().preimage());
      }
    } catch (const SerdeError&) {
    }
  }
}

// ---------------------------------------------------------------------------
// PR 10 wire formats: bitset (aggregate) quorum certificates,
// membership-policy blocks, generation-tagged aggregate checkpoint
// certificates and client acceptance certificates. Same contract as the
// frame fuzzer above: flip/truncate/extend a valid encoding, and decode+
// verify must reject cleanly — surviving certificates may only cover
// byte-identical signed content. (The aggregate forms carry no malleable
// signature padding: the 48-byte fold either matches the recomputed MAC
// for the exact claimed signer set and preimage, or it doesn't.)
// ---------------------------------------------------------------------------

TEST(FuzzDecode, MutatedAggregateAndPolicyWireFormatsRejectCleanly) {
  constexpr std::size_t kN = 6;
  const auto agg = crypto::AggKeyring::simulated(kN, 0xa99);

  smr::QuorumCert qc;
  qc.type = smr::MsgType::kCertify;
  qc.view = 2;
  qc.round = 11;
  qc.data = Bytes(32, 0x44);
  const Bytes qc_preimage = qc.preimage();
  for (NodeId i = 0; i < 3; ++i) {
    qc.sigs.emplace_back(i, agg->share(i, qc_preimage));
  }
  const smr::QuorumCert aqc = smr::to_aggregate(qc, kN, 0);

  smr::MembershipPolicy pol;
  pol.generation = 4;
  for (NodeId i = 0; i < 5; ++i) pol.signers.push_back({i, 1});

  checkpoint::CheckpointId id;
  id.height = 24;
  id.block = Bytes(32, 0x31);
  id.digest = Bytes(32, 0x13);
  checkpoint::CheckpointCert ckpt;
  ckpt.id = id;
  for (NodeId i = 2; i < 4; ++i) {
    ckpt.sigs.emplace_back(i, agg->share(i, id.preimage()));
  }
  const checkpoint::CheckpointCert ackpt = smr::to_aggregate(ckpt, kN, 0);

  smr::AcceptanceCert acc;
  acc.client = 7;
  acc.req_id = 21;
  acc.result = to_bytes(std::string("accepted-result"));
  acc.signers = crypto::SignerBitset(kN);
  acc.agg_sig = crypto::AggKeyring::empty_aggregate();
  const Bytes acc_preimage =
      smr::acceptance_preimage(acc.client, acc.req_id, acc.result);
  for (NodeId i : {1, 5}) {
    acc.signers.set(i);
    crypto::AggKeyring::fold_into(acc.agg_sig, agg->share(i, acc_preimage));
  }

  // A fresh replica knows membership generation 0 only, so both
  // certificates are tagged 0 and verify before mutation.
  smr::ProbeNode node(smr::probe_config(
      kN, 1, crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, kN, 1),
      agg));
  ASSERT_TRUE(node.replica.verify_qc(aqc, 3));
  ASSERT_TRUE(node.replica.verify_checkpoint_cert(ackpt));

  const std::vector<Bytes> corpora = {aqc.encode(), pol.encode(),
                                      ackpt.encode(), acc.encode()};
  sim::Rng mutator(0xb17);
  for (int iter = 0; iter < 6000; ++iter) {
    const std::size_t which = iter % corpora.size();
    Bytes mutated = corpora[which];
    switch (mutator.below(3)) {
      case 0: {  // flip 1-4 bytes
        const std::size_t flips = 1 + mutator.below(4);
        for (std::size_t i = 0; i < flips; ++i) {
          mutated[mutator.below(mutated.size())] ^=
              static_cast<std::uint8_t>(1 + mutator.below(255));
        }
        break;
      }
      case 1:  // truncate
        mutated.resize(mutator.below(mutated.size() + 1));
        break;
      default: {  // extend with junk
        const std::size_t extra = 1 + mutator.below(32);
        for (std::size_t i = 0; i < extra; ++i) {
          mutated.push_back(static_cast<std::uint8_t>(mutator.next()));
        }
        break;
      }
    }

    try {
      const smr::QuorumCert m = smr::QuorumCert::decode(mutated);
      if (node.replica.verify_qc(m, 3)) {
        EXPECT_EQ(m.preimage(), qc_preimage)
            << "mutated aggregate QC accepted with altered content";
        EXPECT_EQ(m.signers, aqc.signers);
      }
    } catch (const SerdeError&) {
    } catch (const std::invalid_argument&) {
    }

    // Policies carry no signature of their own (they are authenticated
    // by the chain that commits them): decode must stay total, and any
    // survivor is just structurally checked downstream by apply().
    expect_no_crash(
        [](BytesView d) { (void)smr::MembershipPolicy::decode(d); },
        mutated);
    expect_no_crash(
        [](BytesView d) { (void)smr::MembershipPolicy::decode_command(d); },
        mutated);

    try {
      const auto c = checkpoint::CheckpointCert::decode(mutated);
      if (node.replica.verify_checkpoint_cert(c)) {
        EXPECT_EQ(c.id, id)
            << "mutated aggregate checkpoint cert accepted with altered id";
      }
    } catch (const SerdeError&) {
    } catch (const std::invalid_argument&) {
    }

    try {
      const auto c = smr::AcceptanceCert::decode(mutated);
      if (c.verify(*agg, 2)) {
        EXPECT_EQ(smr::acceptance_preimage(c.client, c.req_id, c.result),
                  acc_preimage)
            << "mutated acceptance cert accepted with altered content";
      }
    } catch (const SerdeError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(FuzzDecode, AggregateCertCountBombRejected) {
  // The aggregate branch is selected by the 0xFFFFFFFF count sentinel;
  // a hostile bitset universe (4 G nodes) must not allocate gigabytes.
  Writer w;
  w.u8(static_cast<std::uint8_t>(smr::MsgType::kCertify));
  w.u64(1);
  w.u64(1);
  w.bytes(Bytes(32, 0x01));
  w.u32(0xffffffffu);  // aggregate sentinel
  w.u64(0);            // generation
  w.u32(0xfffffff0u);  // bitset universe: ~4G signers
  expect_no_crash([](BytesView d) { (void)smr::QuorumCert::decode(d); },
                  w.buffer());
}

TEST(FuzzDecode, LengthPrefixBombsRejected) {
  // A 4 GiB length prefix must not allocate 4 GiB.
  Writer w;
  w.u32(0xffffffffu);
  expect_no_crash([](BytesView d) { (void)smr::Block::decode(d); },
                  w.buffer());
  Reader r(w.buffer());
  EXPECT_THROW((void)r.bytes(), SerdeError);
}

// ---------------------------------------------------------------------------
// Well-encoded blocks whose height does not follow their parent's
// ---------------------------------------------------------------------------

/// Records the type of every message the probe sends, and the hash each
/// kSyncRequest asks for (it has no peers, so nothing leaves).
class SendLog final : public smr::OutboundPolicy {
 public:
  bool allow(const smr::Msg& m, NodeId) override {
    types.push_back(m.type);
    if (m.type == smr::MsgType::kSyncRequest) asked.push_back(m.data);
    return false;
  }
  [[nodiscard]] std::size_t count(smr::MsgType t) const {
    return static_cast<std::size_t>(std::count(types.begin(), types.end(), t));
  }
  std::vector<smr::MsgType> types;
  std::vector<smr::BlockHash> asked;
};

/// Probe replica 0 of n = 4 that hears replica 1's signed kSyncResponses.
struct SyncProbe {
  SyncProbe()
      : ring(crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, 4, 7)),
        node(smr::probe_config(4, 1, ring)) {
    node.replica.set_outbound_policy(&log);
  }
  /// Deliver replica 1's kSyncResponse carrying `blocks`, deepest first.
  void sync_response(const std::vector<smr::Block>& blocks) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    for (const smr::Block& b : blocks) w.bytes(b.encode());
    sync_response(w.take());
  }
  /// Deliver replica 1's kSyncResponse with payload `data`.
  void sync_response(Bytes data) {
    smr::Msg m;
    m.type = smr::MsgType::kSyncResponse;
    m.view = 1;
    m.author = 1;
    m.data = std::move(data);
    m.sig = ring->signer(1).sign(m.preimage());
    net::FloodClient& client = node.replica;
    client.on_deliver(1, m.encode());
  }

  std::shared_ptr<crypto::Keyring> ring;
  smr::ProbeNode node;
  SendLog log;
};

smr::Block block_at(const smr::BlockHash& parent, std::uint64_t height) {
  smr::Block b;
  b.parent = parent;
  b.height = height;
  b.view = 1;
  b.proposer = 1;
  return b;
}

TEST(FuzzDecode, BadHeightBlockFromSyncIsDropped) {
  SyncProbe p;
  const smr::Block bad = block_at(smr::genesis_hash(), 5);
  EXPECT_NO_THROW(p.sync_response({bad}));
  EXPECT_FALSE(p.node.replica.store().contains(bad.hash()));
  EXPECT_EQ(p.node.replica.chain_sync().orphan_count(), 0u);
  EXPECT_EQ(p.log.count(smr::MsgType::kSyncRequest), 0u);
}

TEST(FuzzDecode, BadHeightProposedBlockIsDropped) {
  // integrate_block is every protocol's entry for a proposal's block.
  SyncProbe p;
  const smr::Block bad = block_at(smr::genesis_hash(), 5);
  bool integrated = true;
  EXPECT_NO_THROW(integrated = p.node.replica.integrate_block(bad, 1));
  EXPECT_FALSE(integrated);
  EXPECT_FALSE(p.node.replica.store().contains(bad.hash()));
  EXPECT_EQ(p.node.replica.chain_sync().orphan_count(), 0u);
  EXPECT_EQ(p.log.count(smr::MsgType::kSyncRequest), 0u);
}

TEST(FuzzDecode, BadHeightOrphanIsDroppedWhenItsParentArrives) {
  SyncProbe p;
  const smr::Block b1 = block_at(smr::genesis_hash(), 1);
  const smr::Block bad = block_at(b1.hash(), 5);
  p.sync_response({bad});  // parent unknown: parked as an orphan
  EXPECT_EQ(p.node.replica.chain_sync().orphan_count(), 1u);
  EXPECT_NO_THROW(p.sync_response({b1}));
  EXPECT_TRUE(p.node.replica.store().contains(b1.hash()));
  EXPECT_FALSE(p.node.replica.store().contains(bad.hash()));
  EXPECT_EQ(p.node.replica.chain_sync().orphan_count(), 0u);
}

TEST(FuzzDecode, UnconnectableProposalsParkBounded) {
  // A Byzantine leader's proposals whose parents never arrive are parked
  // for a chain-sync connect that never comes: the buffer stops growing
  // at its cap.
  SyncProbe p;
  const std::size_t cap = smr::ChainSync::kMaxParked;
  for (std::uint64_t i = 0; i < cap + 100; ++i) {
    smr::Msg m;
    m.type = smr::MsgType::kPropose;
    m.view = 1;
    m.author = 1;
    m.data = block_at(smr::BlockHash(32, 0xab), i + 2).encode();
    p.node.replica.retry_on_connect(m);
  }
  EXPECT_EQ(p.node.replica.parked(), cap);
}

TEST(FuzzDecode, UnsolicitedSyncResponsesCannotGrowTheOrphanPool) {
  // Any replica may send a signed kSyncResponse nobody asked for. Made-up
  // blocks whose ancestry never arrives stop parking at the cap.
  SyncProbe p;
  const std::size_t cap = smr::ChainSync::kMaxParked;
  const std::size_t per = smr::ChainSync::kMaxSyncBlocks;
  for (std::uint64_t r = 0; r * per < cap + 2 * per; ++r) {
    std::vector<smr::Block> made_up;
    for (std::uint64_t i = 0; i < per; ++i) {
      made_up.push_back(
          block_at(smr::BlockHash(32, static_cast<std::uint8_t>(r)),
                   r * per + i + 2));
    }
    p.sync_response(made_up);
  }
  EXPECT_EQ(p.node.replica.chain_sync().orphan_count(), cap);

  // An honest gap of kMaxSyncBlocks still connects through the full pool:
  // deepest first, each block's parent is already stored.
  std::vector<smr::Block> gap{block_at(smr::genesis_hash(), 1)};
  while (gap.size() < per) {
    gap.push_back(block_at(gap.back().hash(), gap.back().height + 1));
  }
  p.sync_response(gap);
  for (const smr::Block& b : gap) {
    EXPECT_TRUE(p.node.replica.store().contains(b.hash())) << b.height;
  }
  EXPECT_EQ(p.node.replica.chain_sync().orphan_count(), cap);
}

/// A replica more than kMaxParked blocks behind, with checkpoints off,
/// walks backward from the top of the gap, so the pool fills with the
/// highest blocks first. The walk must still reach its own chain, and a
/// proposal `later` heights above the first top must fetch what the full
/// pool could not hold.
void expect_deep_gap_connects(std::size_t later) {
  SCOPED_TRACE(later);
  SyncProbe p;
  smr::BlockStore honest;
  const smr::ChainSync server(honest);
  const std::size_t top = smr::ChainSync::kMaxParked + 500;
  std::vector<smr::Block> chain{smr::genesis_block()};
  while (chain.size() < top + later) {
    chain.push_back(block_at(chain.back().hash(), chain.size()));
    honest.add(chain.back());
  }
  const smr::Block next = block_at(chain.back().hash(), chain.size());
  std::size_t served = 0;
  // Answer every sync request the replica sends, as peer 1 would.
  const auto serve_all = [&] {
    while (served < p.log.asked.size()) {
      Writer w;
      ASSERT_GT(server.serve(p.log.asked[served++], w), 0u);
      p.sync_response(w.take());
    }
  };
  EXPECT_FALSE(p.node.replica.integrate_block(chain[top], 1));
  serve_all();
  (void)p.node.replica.integrate_block(next, 1);  // a later proposal
  serve_all();
  for (const smr::Block& b : chain) {
    ASSERT_TRUE(p.node.replica.store().contains(b.hash())) << b.height;
  }
  EXPECT_TRUE(p.node.replica.store().contains(next.hash()));
  EXPECT_EQ(p.node.replica.chain_sync().orphan_count(), 0u);
}

TEST(FuzzDecode, HonestGapDeeperThanTheOrphanPoolConnects) {
  expect_deep_gap_connects(1);
  // The re-walk from 64 heights up asks again for the first top's
  // parent, which the first walk asked already.
  expect_deep_gap_connects(64);
}

}  // namespace
}  // namespace eesmr
