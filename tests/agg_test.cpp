// Certificate-scheme conformance tier (`ctest -L certs`): the simulated
// BLS aggregate layer (src/crypto/agg.hpp), its certificate wire forms,
// and the scheme's end-to-end equivalence guarantees — an aggregate-
// scheme cluster commits byte-identical chains to an individual-scheme
// one, while its vote-class wire bytes shrink.
#include <gtest/gtest.h>

#include <optional>

#include "src/checkpoint/checkpoint.hpp"
#include "src/common/hex.hpp"
#include "src/common/serde.hpp"
#include "src/crypto/agg.hpp"
#include "src/energy/cost_model.hpp"
#include "src/harness/cluster.hpp"
#include "src/smr/message.hpp"
#include "src/smr/request.hpp"
#include "tests/cert_probe.hpp"

namespace eesmr {
namespace {

using crypto::AggKeyring;
using crypto::kAggSignatureBytes;
using crypto::SignerBitset;

// ---------------------------------------------------------------------------
// SignerBitset
// ---------------------------------------------------------------------------

TEST(SignerBitset, SetTestCountMembers) {
  SignerBitset s(10);
  EXPECT_EQ(s.count(), 0u);
  s.set(0);
  s.set(7);
  s.set(9);
  EXPECT_TRUE(s.test(0));
  EXPECT_FALSE(s.test(1));
  EXPECT_TRUE(s.test(9));
  EXPECT_FALSE(s.test(10));  // out of universe: false, not UB
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.members(), (std::vector<NodeId>{0, 7, 9}));
  EXPECT_THROW(s.set(10), std::out_of_range);
}

TEST(SignerBitset, EncodeDecodeRoundTrip) {
  SignerBitset s(13);
  s.set(2);
  s.set(8);
  s.set(12);
  Writer w;
  s.encode_into(w);
  Reader r(w.buffer());
  const SignerBitset back = SignerBitset::decode_from(r);
  r.expect_done();
  EXPECT_EQ(back, s);
}

TEST(SignerBitset, DecodeRejectsBitsBeyondUniverse) {
  // Canonical-encoding rule: a set bit at or past n has no logical
  // meaning, so accepting it would give one signer set two encodings —
  // and signed content must be byte-identical.
  Writer w;
  w.u32(5);                            // universe of 5 → 1 byte of bits
  w.raw(Bytes{static_cast<std::uint8_t>(0xE0)});  // bits 5,6,7 set
  Reader r(w.buffer());
  EXPECT_THROW(SignerBitset::decode_from(r), SerdeError);
}

// ---------------------------------------------------------------------------
// AggKeyring
// ---------------------------------------------------------------------------

TEST(AggKeyring, ShareBindsNodeAndMessage) {
  const auto agg = AggKeyring::simulated(4, 42);
  const Bytes msg = to_bytes("certify height 7");
  const Bytes sig = agg->share(1, msg);
  EXPECT_EQ(sig.size(), kAggSignatureBytes);
  EXPECT_TRUE(agg->verify_share(1, msg, sig));
  EXPECT_FALSE(agg->verify_share(2, msg, sig));                  // wrong node
  EXPECT_FALSE(agg->verify_share(1, to_bytes("other"), sig));    // wrong msg
  Bytes bad = sig;
  bad[0] ^= 0x01;
  EXPECT_FALSE(agg->verify_share(1, msg, bad));                  // forged
}

// Wire bytes of one 48-byte share, pinned so the keyed-hash
// implementation can change without moving a single certificate byte.
TEST(AggKeyring, ShareIsPinned) {
  const auto kr = AggKeyring::simulated(4, 7);
  const Bytes msg = to_bytes("eesmr/pinned-wire-bytes");
  const Bytes share = kr->share(2, msg);
  EXPECT_EQ(hex_encode(share),
            "51c96306ff70e2b56caa469ee2d9e9b671c52b3309296159c28cd93afa41484c"
            "0bba97d0d3968a8e4143880bfe94d79c");
  EXPECT_TRUE(kr->verify_share(2, msg, share));
}

TEST(AggKeyring, DeterministicInSeed) {
  const auto a = AggKeyring::simulated(4, 7);
  const auto b = AggKeyring::simulated(4, 7);
  const auto c = AggKeyring::simulated(4, 8);
  const Bytes msg = to_bytes("m");
  EXPECT_EQ(a->share(0, msg), b->share(0, msg));
  EXPECT_NE(a->share(0, msg), c->share(0, msg));
}

TEST(AggKeyring, AggregateVerifiesForExactSignerSet) {
  const auto agg = AggKeyring::simulated(6, 1);
  const Bytes msg = to_bytes("vote");
  SignerBitset signers(6);
  Bytes folded = AggKeyring::empty_aggregate();
  for (NodeId id : {0, 2, 5}) {
    signers.set(id);
    AggKeyring::fold_into(folded, agg->share(id, msg));
  }
  EXPECT_TRUE(agg->verify_aggregate(signers, msg, folded));
  EXPECT_FALSE(agg->verify_aggregate(signers, to_bytes("other"), folded));
}

TEST(AggKeyring, MissingSignerShareRejected) {
  // Bitset claims {0, 2, 5} but node 5's share was never folded.
  const auto agg = AggKeyring::simulated(6, 1);
  const Bytes msg = to_bytes("vote");
  SignerBitset signers(6);
  for (NodeId id : {0, 2, 5}) signers.set(id);
  Bytes folded = AggKeyring::empty_aggregate();
  AggKeyring::fold_into(folded, agg->share(0, msg));
  AggKeyring::fold_into(folded, agg->share(2, msg));
  EXPECT_FALSE(agg->verify_aggregate(signers, msg, folded));
}

TEST(AggKeyring, ExtraUnclaimedShareRejected) {
  const auto agg = AggKeyring::simulated(6, 1);
  const Bytes msg = to_bytes("vote");
  SignerBitset signers(6);
  for (NodeId id : {0, 2}) signers.set(id);
  Bytes folded = AggKeyring::empty_aggregate();
  for (NodeId id : {0, 2, 3}) AggKeyring::fold_into(folded, agg->share(id, msg));
  EXPECT_FALSE(agg->verify_aggregate(signers, msg, folded));
}

TEST(AggKeyring, DuplicateShareCancelsStructurally) {
  // XOR folding makes a doubled share cancel out — the aggregate then no
  // longer matches the claimed set, exactly like a doubled term shifting
  // the group sum in real BLS.
  const auto agg = AggKeyring::simulated(6, 1);
  const Bytes msg = to_bytes("vote");
  SignerBitset signers(6);
  for (NodeId id : {0, 2}) signers.set(id);
  Bytes folded = AggKeyring::empty_aggregate();
  AggKeyring::fold_into(folded, agg->share(0, msg));
  AggKeyring::fold_into(folded, agg->share(2, msg));
  AggKeyring::fold_into(folded, agg->share(2, msg));  // duplicate
  EXPECT_FALSE(agg->verify_aggregate(signers, msg, folded));
}

TEST(AggKeyring, EmptySignerSetRejected) {
  const auto agg = AggKeyring::simulated(4, 1);
  EXPECT_FALSE(agg->verify_aggregate(SignerBitset(4), to_bytes("m"),
                                     AggKeyring::empty_aggregate()));
}

TEST(AggKeyring, AggregationIsOrderIndependent) {
  const auto agg = AggKeyring::simulated(5, 9);
  const Bytes msg = to_bytes("m");
  Bytes ab = AggKeyring::empty_aggregate();
  AggKeyring::fold_into(ab, agg->share(1, msg));
  AggKeyring::fold_into(ab, agg->share(4, msg));
  Bytes ba = AggKeyring::empty_aggregate();
  AggKeyring::fold_into(ba, agg->share(4, msg));
  AggKeyring::fold_into(ba, agg->share(1, msg));
  EXPECT_EQ(ab, ba);
}

// ---------------------------------------------------------------------------
// Energy model
// ---------------------------------------------------------------------------

TEST(AggEnergy, VerifyScalesLinearlyAfterPairings) {
  // Two fixed pairings plus one point-add per extra signer: k=1 is the
  // floor, and each signer after that costs the same small increment.
  const double base = energy::agg_verify_energy_mj(1);
  const double k2 = energy::agg_verify_energy_mj(2);
  const double k10 = energy::agg_verify_energy_mj(10);
  EXPECT_GT(base, 0.0);
  EXPECT_GT(k2, base);
  EXPECT_NEAR(k10 - k2, 8 * (k2 - base), 1e-9);
  // Combining is point-adds only — far below a verification.
  EXPECT_LT(energy::agg_combine_energy_mj(10),
            energy::agg_verify_energy_mj(1));
  EXPECT_DOUBLE_EQ(energy::agg_combine_energy_mj(1), 0.0);
  EXPECT_GT(energy::agg_sign_energy_mj(), 0.0);
}

// ---------------------------------------------------------------------------
// Certificate wire forms
// ---------------------------------------------------------------------------

/// Replica 0 of `n` under the aggregate scheme, over `agg`'s shares.
smr::ReplicaConfig agg_probe(std::size_t n, std::size_t f,
                             std::shared_ptr<AggKeyring> agg) {
  return smr::probe_config(
      n, f, crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, n, 3),
      std::move(agg));
}

smr::QuorumCert share_signed_qc(const AggKeyring& agg,
                                const std::vector<NodeId>& signers) {
  smr::QuorumCert qc;
  qc.type = smr::MsgType::kVote;
  qc.view = 3;
  qc.round = 9;
  qc.data = to_bytes("block hash stand-in");
  const Bytes preimage = qc.preimage();
  for (NodeId id : signers) qc.sigs.emplace_back(id, agg.share(id, preimage));
  return qc;
}

TEST(AggregateQuorumCert, ToAggregateRoundTripsAndVerifies) {
  const auto agg = AggKeyring::simulated(7, 3);
  const smr::QuorumCert qc = share_signed_qc(*agg, {0, 1, 4});
  const smr::QuorumCert aqc = smr::to_aggregate(qc, 7, 0);
  EXPECT_EQ(aqc.scheme, smr::CertScheme::kAggregate);
  EXPECT_EQ(aqc.gen, 0u);
  EXPECT_EQ(aqc.signer_count(), 3u);
  EXPECT_EQ(aqc.signer_list(), (std::vector<NodeId>{0, 1, 4}));
  smr::ProbeNode node(agg_probe(7, 2, agg));
  EXPECT_TRUE(node.replica.verify_qc(aqc, 3));
  EXPECT_FALSE(node.replica.verify_qc(aqc, 4));  // below quorum

  const smr::QuorumCert back = smr::QuorumCert::decode(aqc.encode());
  EXPECT_EQ(back.scheme, smr::CertScheme::kAggregate);
  EXPECT_EQ(back.gen, aqc.gen);
  EXPECT_EQ(back.signers, aqc.signers);
  EXPECT_EQ(back.agg_sig, aqc.agg_sig);
  EXPECT_TRUE(node.replica.verify_qc(back, 3));
  EXPECT_EQ(back.encode(), aqc.encode());
}

TEST(AggregateQuorumCert, ReplicaRejectsUnknownGeneration) {
  // The wire form carries any generation tag, but a replica counts an
  // aggregate only in a generation its membership history knows; a
  // fresh replica knows generation 0 alone.
  const auto agg = AggKeyring::simulated(7, 3);
  const smr::QuorumCert qc = share_signed_qc(*agg, {0, 1, 4});
  const smr::QuorumCert tagged =
      smr::QuorumCert::decode(smr::to_aggregate(qc, 7, 2).encode());
  EXPECT_EQ(tagged.gen, 2u);
  smr::ProbeNode node(agg_probe(7, 2, agg));
  EXPECT_FALSE(node.replica.verify_qc(tagged, 3));
  EXPECT_TRUE(node.replica.verify_qc(smr::to_aggregate(qc, 7, 0), 3));
}

TEST(AggregateQuorumCert, ReplicaRejectsSignerBitsetWiderThanN) {
  // Signers 0..2 are all replicas of n = 4, but a bitset over a 7-node
  // universe does not describe this replica set.
  const auto agg = AggKeyring::simulated(7, 3);
  const smr::QuorumCert qc = share_signed_qc(*agg, {0, 1, 2});
  smr::ProbeNode node(agg_probe(4, 1, agg));
  EXPECT_FALSE(node.replica.verify_qc(smr::to_aggregate(qc, 7, 0), 2));
  EXPECT_TRUE(node.replica.verify_qc(smr::to_aggregate(qc, 4, 0), 2));
}

TEST(AggregateQuorumCert, DuplicateSignerThrowsOnFold) {
  const auto agg = AggKeyring::simulated(7, 3);
  smr::QuorumCert qc = share_signed_qc(*agg, {0, 1});
  qc.sigs.emplace_back(1, agg->share(1, qc.preimage()));
  EXPECT_THROW(smr::to_aggregate(qc, 7, 0), std::invalid_argument);
}

TEST(AggregateQuorumCert, ForgedAggregateRejected) {
  const auto agg = AggKeyring::simulated(7, 3);
  smr::QuorumCert aqc =
      smr::to_aggregate(share_signed_qc(*agg, {0, 1, 4}), 7, 0);
  aqc.agg_sig[10] ^= 0x40;
  smr::ProbeNode node(agg_probe(7, 2, agg));
  EXPECT_FALSE(node.replica.verify_qc(aqc, 3));
}

TEST(AggregateQuorumCert, WireSizeIsConstantInSignerCount) {
  // The O(n) → O(1) claim at wire level: 3 signers or 6, the aggregate
  // encoding's size moves by at most the bitset byte — while the
  // individual form grows by a whole signature per signer.
  const auto agg = AggKeyring::simulated(32, 3);
  const smr::QuorumCert small =
      smr::to_aggregate(share_signed_qc(*agg, {0, 1, 2}), 32, 0);
  const smr::QuorumCert large =
      smr::to_aggregate(
          share_signed_qc(*agg, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}), 32, 0);
  EXPECT_EQ(small.encode().size(), large.encode().size());
}

TEST(AggregateCheckpointCert, RoundTripAndTamperRejection) {
  const auto agg = AggKeyring::simulated(5, 11);
  checkpoint::CheckpointId id;
  id.height = 40;
  id.block = Bytes(32, 0xAB);
  id.digest = Bytes(32, 0xCD);
  checkpoint::CheckpointCert cert;
  cert.id = id;
  const Bytes preimage = id.preimage();
  for (NodeId n : {1, 3}) cert.sigs.emplace_back(n, agg->share(n, preimage));
  const checkpoint::CheckpointCert acert = smr::to_aggregate(cert, 5, 0);
  // The checkpoint quorum is f+1: 2 at f = 1, 3 at f = 2.
  smr::ProbeNode f1(agg_probe(5, 1, agg));
  smr::ProbeNode f2(agg_probe(5, 2, agg));
  EXPECT_TRUE(f1.replica.verify_checkpoint_cert(acert));
  EXPECT_FALSE(f2.replica.verify_checkpoint_cert(acert));  // below quorum

  const auto back = checkpoint::CheckpointCert::decode(acert.encode());
  EXPECT_TRUE(f1.replica.verify_checkpoint_cert(back));
  EXPECT_EQ(back.encode(), acert.encode());

  checkpoint::CheckpointCert forged = acert;
  forged.id.digest[0] ^= 0xFF;
  EXPECT_FALSE(f1.replica.verify_checkpoint_cert(forged));
}

TEST(AcceptanceCert, FoldVerifyAndTamperRejection) {
  const auto agg = AggKeyring::simulated(4, 5);
  smr::AcceptanceCert cert;
  cert.client = 9;
  cert.req_id = 77;
  cert.result = to_bytes("OK value");
  cert.signers = SignerBitset(4);
  cert.agg_sig = AggKeyring::empty_aggregate();
  const Bytes preimage =
      smr::acceptance_preimage(cert.client, cert.req_id, cert.result);
  for (NodeId n : {0, 3}) {
    cert.signers.set(n);
    AggKeyring::fold_into(cert.agg_sig, agg->share(n, preimage));
  }
  EXPECT_TRUE(cert.verify(*agg, 2));
  EXPECT_FALSE(cert.verify(*agg, 3));  // below quorum

  const smr::AcceptanceCert back = smr::AcceptanceCert::decode(cert.encode());
  EXPECT_TRUE(back.verify(*agg, 2));

  smr::AcceptanceCert forged = cert;
  forged.result = to_bytes("OK forged");
  EXPECT_FALSE(forged.verify(*agg, 2));
}

// ---------------------------------------------------------------------------
// End-to-end scheme equivalence
// ---------------------------------------------------------------------------

harness::RunResult run_scheme(
    harness::Protocol protocol, smr::CertScheme scheme, std::size_t n = 4,
    std::size_t f = 1, std::uint64_t checkpoint_interval = 4,
    std::optional<harness::FaultSpec> fault = std::nullopt,
    std::uint64_t commits = 8) {
  harness::ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n = n;
  cfg.f = f;
  cfg.cert_scheme = scheme;
  cfg.clients = 1;
  cfg.workload.max_requests = 12;
  cfg.checkpoint_interval = checkpoint_interval;
  cfg.seed = 77;
  if (fault.has_value()) cfg.faults.push_back(*fault);
  harness::Cluster cluster(cfg);
  return cluster.run_until_commits(commits, sim::seconds(120));
}

TEST(AggregateScheme, CommitChainsByteIdenticalToIndividual) {
  // The scheme changes certificates, never ordering: same seed, same
  // protocol, both schemes must commit byte-identical block chains.
  // Checkpointing is off here because its dissemination deliberately
  // differs per scheme (share flood vs collector + O(1) cert), which
  // shifts GC timing — the agreement layer is what must be bit-equal.
  for (const harness::Protocol p :
       {harness::Protocol::kEesmr, harness::Protocol::kSyncHotStuff,
        harness::Protocol::kPbft, harness::Protocol::kMinBft}) {
    const harness::RunResult ind =
        run_scheme(p, smr::CertScheme::kIndividual, 4, 1, 0);
    const harness::RunResult agg =
        run_scheme(p, smr::CertScheme::kAggregate, 4, 1, 0);
    ASSERT_GE(agg.min_committed(), 8u) << harness::protocol_name(p);
    ASSERT_EQ(ind.logs.size(), agg.logs.size()) << harness::protocol_name(p);
    for (std::size_t i = 0; i < ind.logs.size(); ++i) {
      ASSERT_EQ(ind.logs[i].size(), agg.logs[i].size())
          << harness::protocol_name(p) << " node " << i;
      for (std::size_t b = 0; b < ind.logs[i].size(); ++b) {
        EXPECT_EQ(ind.logs[i][b].encode(), agg.logs[i][b].encode())
            << harness::protocol_name(p) << " node " << i << " block " << b;
      }
    }
    EXPECT_TRUE(agg.safety_ok()) << harness::protocol_name(p);
    EXPECT_GT(agg.acceptance_certs, 0u) << harness::protocol_name(p);
  }
}

TEST(AggregateScheme, CrashedLeaderViewChangeRecoversUnderBothSchemes) {
  // Node 1 leads view 1 and crashes at trigger 5. View-change traffic
  // (blames, view-change and new-view messages) is certificate-bound, so
  // under the aggregate scheme it must be share-signed like votes, or
  // every receiver rejects it and the cluster stalls in view 1.
  for (const harness::Protocol p :
       {harness::Protocol::kEesmr, harness::Protocol::kSyncHotStuff,
        harness::Protocol::kPbft, harness::Protocol::kMinBft}) {
    for (const smr::CertScheme scheme :
         {smr::CertScheme::kIndividual, smr::CertScheme::kAggregate}) {
      const harness::RunResult r =
          run_scheme(p, scheme, 4, 1, 4,
                     harness::FaultSpec{1, {smr::ByzantineMode::kCrash, 5}},
                     20);
      const char* name = scheme == smr::CertScheme::kAggregate
                             ? "aggregate"
                             : "individual";
      EXPECT_GE(r.min_committed(), 20u)
          << harness::protocol_name(p) << " " << name;
      EXPECT_TRUE(r.safety_ok()) << harness::protocol_name(p) << " " << name;
    }
  }
}

TEST(AggregateScheme, CollectorStabilizesCheckpointsWithO1Certs) {
  // Aggregate scheme: checkpoint shares route to the height's rotating
  // collector, which floods one {bitset, aggregate} certificate. Every
  // replica must still reach stability (low-water GC advances) — and the
  // checkpoint stream must carry far fewer bytes than the share flood
  // of the individual scheme.
  const harness::RunResult ind = run_scheme(
      harness::Protocol::kSyncHotStuff, smr::CertScheme::kIndividual);
  const harness::RunResult agg = run_scheme(
      harness::Protocol::kSyncHotStuff, smr::CertScheme::kAggregate);
  for (const harness::ReplicaFootprint& fp : agg.footprints) {
    EXPECT_GT(fp.checkpoints_taken, 0u);
    EXPECT_GT(fp.stable_height, 0u);  // certs reached everyone
  }
  const auto ind_ckpt = ind.stream_totals(energy::Stream::kCheckpoint);
  const auto agg_ckpt = agg.stream_totals(energy::Stream::kCheckpoint);
  EXPECT_LT(agg_ckpt.bytes_sent * 2, ind_ckpt.bytes_sent);
}

TEST(AggregateScheme, ShrinksVoteStreamBytes) {
  // RSA-1024 signatures are 128 bytes; shares are 48. At n=7 the vote
  // stream (share-signed votes) and every certificate shipped inside
  // proposals shrink accordingly.
  const harness::RunResult ind = run_scheme(
      harness::Protocol::kSyncHotStuff, smr::CertScheme::kIndividual, 7, 3);
  const harness::RunResult agg = run_scheme(
      harness::Protocol::kSyncHotStuff, smr::CertScheme::kAggregate, 7, 3);
  const auto ind_votes = ind.stream_totals(energy::Stream::kVote);
  const auto agg_votes = agg.stream_totals(energy::Stream::kVote);
  EXPECT_LT(agg_votes.bytes_sent, ind_votes.bytes_sent);
  EXPECT_LT(agg.bytes_transmitted, ind.bytes_transmitted);
}

TEST(AggregateScheme, ClientFoldsVerifiableAcceptanceCerts) {
  harness::ClusterConfig cfg;
  cfg.protocol = harness::Protocol::kEesmr;
  cfg.n = 4;
  cfg.f = 1;
  cfg.cert_scheme = smr::CertScheme::kAggregate;
  cfg.clients = 1;
  cfg.workload.max_requests = 6;
  cfg.seed = 5;
  harness::Cluster cluster(cfg);
  const harness::RunResult r =
      cluster.run_until_accepted(6, sim::seconds(120));
  ASSERT_EQ(r.requests_accepted, 6u);
  ASSERT_NE(cluster.agg(), nullptr);
  const auto& certs = cluster.client(0).acceptance_certs();
  ASSERT_EQ(certs.size(), 6u);
  for (const auto& [req_id, cert] : certs) {
    EXPECT_EQ(cert.signers.count(), cfg.f + 1) << "req " << req_id;
    EXPECT_TRUE(cert.verify(*cluster.agg(), cfg.f + 1)) << "req " << req_id;
    // Transferable: the wire round-trip verifies too.
    EXPECT_TRUE(smr::AcceptanceCert::decode(cert.encode())
                    .verify(*cluster.agg(), cfg.f + 1));
  }
}

}  // namespace
}  // namespace eesmr
