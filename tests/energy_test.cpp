#include <gtest/gtest.h>

#include "src/energy/cost_model.hpp"
#include "src/energy/meter.hpp"
#include "src/harness/cluster.hpp"

namespace eesmr::energy {
namespace {

// -- Meter --------------------------------------------------------------------

TEST(Meter, AccumulatesPerCategory) {
  Meter m;
  m.charge(Category::kSign, 400.0);
  m.charge(Category::kSign, 400.0);
  m.charge(Category::kVerify, 20.0);
  EXPECT_DOUBLE_EQ(m.millijoules(Category::kSign), 800.0);
  EXPECT_DOUBLE_EQ(m.millijoules(Category::kVerify), 20.0);
  EXPECT_DOUBLE_EQ(m.total_millijoules(), 820.0);
  EXPECT_EQ(m.ops(Category::kSign), 2u);
}

TEST(Meter, TracksBytes) {
  Meter m;
  m.charge_send(1.0, 100);
  m.charge_recv(2.0, 300);
  EXPECT_EQ(m.bytes_sent(), 100u);
  EXPECT_EQ(m.bytes_received(), 300u);
  EXPECT_EQ(m.messages_sent(), 1u);
}

TEST(Meter, RejectsNegativeCharge) {
  Meter m;
  EXPECT_THROW(m.charge(Category::kHash, -1.0), std::invalid_argument);
}

TEST(Meter, SumAndReset) {
  Meter a, b;
  a.charge(Category::kSend, 5);
  b.charge(Category::kSend, 7);
  b.charge(Category::kHash, 1);
  a += b;
  EXPECT_DOUBLE_EQ(a.total_millijoules(), 13.0);
  a.reset();
  EXPECT_DOUBLE_EQ(a.total_millijoules(), 0.0);
  EXPECT_EQ(a.ops(Category::kSend), 0u);
}

TEST(Meter, PerStreamAttribution) {
  Meter m;
  m.charge_send(1.5, 100, Stream::kProposal);
  m.charge_send(2.0, 50, Stream::kProposal);
  m.charge_recv(0.5, 80, Stream::kVote);
  m.charge_send(4.0, 10);  // untagged -> kOther
  EXPECT_DOUBLE_EQ(m.stream(Stream::kProposal).send_mj, 3.5);
  EXPECT_EQ(m.stream(Stream::kProposal).transmissions, 2u);
  EXPECT_EQ(m.stream(Stream::kProposal).bytes_sent, 150u);
  EXPECT_DOUBLE_EQ(m.stream(Stream::kVote).recv_mj, 0.5);
  EXPECT_EQ(m.stream(Stream::kVote).bytes_received, 80u);
  EXPECT_DOUBLE_EQ(m.stream(Stream::kOther).send_mj, 4.0);
  // Category totals are the sum over streams.
  EXPECT_DOUBLE_EQ(m.millijoules(Category::kSend), 7.5);
  EXPECT_EQ(m.bytes_sent(), 160u);
}

TEST(Meter, StreamsSumAndReset) {
  Meter a, b;
  a.charge_send(1.0, 10, Stream::kRequest);
  b.charge_send(2.0, 20, Stream::kRequest);
  b.charge_recv(3.0, 30, Stream::kReply);
  a += b;
  EXPECT_DOUBLE_EQ(a.stream(Stream::kRequest).send_mj, 3.0);
  EXPECT_EQ(a.stream(Stream::kRequest).bytes_sent, 30u);
  EXPECT_DOUBLE_EQ(a.stream(Stream::kReply).recv_mj, 3.0);
  a.reset();
  EXPECT_DOUBLE_EQ(a.stream(Stream::kRequest).send_mj, 0.0);
  EXPECT_EQ(a.stream(Stream::kRequest).transmissions, 0u);
}

// -- Table 1 ------------------------------------------------------------------

TEST(CostModel, Table1ExactAtSamplePoints) {
  // The bench must reproduce Table 1 exactly at the measured sizes.
  EXPECT_DOUBLE_EQ(send_energy_mj(Medium::kBle, 256), 0.73);
  EXPECT_DOUBLE_EQ(recv_energy_mj(Medium::kBle, 512), 1.11);
  EXPECT_DOUBLE_EQ(multicast_energy_mj(Medium::kBle, 2048), 4.70);
  EXPECT_DOUBLE_EQ(send_energy_mj(Medium::k4gLte, 1024), 1979.36);
  EXPECT_DOUBLE_EQ(recv_energy_mj(Medium::k4gLte, 256), 69.54);
  EXPECT_DOUBLE_EQ(send_energy_mj(Medium::kWifi, 2048), 610.55);
  EXPECT_DOUBLE_EQ(recv_energy_mj(Medium::kWifi, 1024), 231.52);
}

TEST(CostModel, MediaOrderingMatchesPaper) {
  // BLE is ~2 orders below WiFi, ~3 below 4G (paper §5.4).
  for (std::size_t sz : {256u, 512u, 1024u, 2048u}) {
    EXPECT_LT(send_energy_mj(Medium::kBle, sz) * 50,
              send_energy_mj(Medium::kWifi, sz));
    EXPECT_LT(send_energy_mj(Medium::kWifi, sz),
              send_energy_mj(Medium::k4gLte, sz));
  }
}

TEST(CostModel, InterpolationMonotonic) {
  for (auto m : {Medium::kBle, Medium::k4gLte, Medium::kWifi}) {
    double prev = 0;
    for (std::size_t sz = 64; sz <= 8192; sz += 64) {
      const double cur = send_energy_mj(m, sz);
      EXPECT_GT(cur, prev) << medium_name(m) << " at " << sz;
      prev = cur;
    }
  }
}

TEST(CostModel, ExtrapolationBeyondTable) {
  // 4 kB extrapolates the last segment: about double the 2 kB cost.
  const double e4k = send_energy_mj(Medium::kBle, 4096);
  EXPECT_NEAR(e4k, 2 * send_energy_mj(Medium::kBle, 2048), 0.7);
}

// -- Table 2 ------------------------------------------------------------------

TEST(CostModel, Table2Values) {
  using crypto::SchemeId;
  EXPECT_DOUBLE_EQ(sign_energy_mj(SchemeId::kRsa1024), 400.0);
  EXPECT_DOUBLE_EQ(verify_energy_mj(SchemeId::kRsa1024), 20.0);
  EXPECT_DOUBLE_EQ(sign_energy_mj(SchemeId::kEcdsaBp160r1), 5800.0);
  EXPECT_DOUBLE_EQ(verify_energy_mj(SchemeId::kEcdsaBp160r1), 11030.0);
  EXPECT_DOUBLE_EQ(sign_energy_mj(SchemeId::kHmacSha256), 190.0);
}

TEST(CostModel, RsaVerifyCheapestAsymmetric) {
  using crypto::SchemeId;
  // §5.5: verification-efficient RSA beats every ECDSA curve on verify.
  for (auto s : {SchemeId::kEcdsaSecp192r1, SchemeId::kEcdsaSecp256r1,
                 SchemeId::kEcdsaBp160r1, SchemeId::kEcdsaSecp256k1}) {
    EXPECT_LT(verify_energy_mj(SchemeId::kRsa1024), verify_energy_mj(s));
  }
}

TEST(CostModel, HashEnergyLinearInSize) {
  const double h1 = hash_energy_mj(64);
  const double h2 = hash_energy_mj(64 * 100);
  EXPECT_GT(h2, h1 * 50);
  EXPECT_LT(h2, h1 * 110);
  // Paper: HMAC over short input costs 0.19 J.
  EXPECT_NEAR(mac_energy_mj(32), 190.0, 1.0);
  // Exact model values at the sizes the simulator's hashes take.
  EXPECT_EQ(hash_energy_mj(64), 95.0);
  EXPECT_EQ(hash_energy_mj(4096), 3087.5);
  EXPECT_EQ(mac_energy_mj(64), 237.5);
}

// -- BLE k-cast model (Fig 2a calibration) -------------------------------------

TEST(BleModel, PacketFragmentation) {
  EXPECT_EQ(ble_adv_packets(0), 1u);
  EXPECT_EQ(ble_adv_packets(1), 1u);
  EXPECT_EQ(ble_adv_packets(25), 1u);
  EXPECT_EQ(ble_adv_packets(26), 2u);
  EXPECT_EQ(ble_adv_packets(500), 20u);
}

TEST(BleModel, PaperCalibrationPoint) {
  // §5.4: 99.99 % reliable k = 7 k-cast of a 25-byte message costs
  // 5.3 mJ at the sender and 9.98 mJ at the receiver.
  const std::size_t r = kcast_redundancy_for(25, 7, 0.9999);
  EXPECT_EQ(r, 10u);
  EXPECT_NEAR(kcast_send_energy_mj(25, r), 5.3, 1e-9);
  EXPECT_NEAR(kcast_recv_energy_mj(25, r), 9.98, 1e-9);
}

TEST(BleModel, FailureDecaysExponentiallyWithRedundancy) {
  double prev_fail = 1.0;
  for (std::size_t r = 1; r <= 10; ++r) {
    const double fail = 1.0 - kcast_success_probability(25, 3, r);
    EXPECT_LT(fail, prev_fail);
    // Roughly geometric decay with ratio ~ loss probability.
    if (r > 1) {
      EXPECT_LT(fail, prev_fail * 0.6);
    }
    prev_fail = fail;
  }
}

TEST(BleModel, FailureGrowsWithK) {
  for (std::size_t r = 2; r <= 6; ++r) {
    const double f1 = 1.0 - kcast_success_probability(25, 1, r);
    const double f3 = 1.0 - kcast_success_probability(25, 3, r);
    const double f7 = 1.0 - kcast_success_probability(25, 7, r);
    EXPECT_LT(f1, f3);
    EXPECT_LT(f3, f7);
  }
}

TEST(BleModel, ReliabilityTargetNeedsMoreRedundancyForLargerK) {
  EXPECT_LE(kcast_redundancy_for(25, 1, 0.9999),
            kcast_redundancy_for(25, 7, 0.9999));
}

TEST(BleModel, ZeroRedundancyNeverSucceeds) {
  EXPECT_DOUBLE_EQ(kcast_success_probability(25, 3, 0), 0.0);
}

// -- GATT unicast vs k-cast (Fig 2b shape) -------------------------------------

TEST(BleModel, UnicastBeatsKcastForSingleDestination) {
  const std::size_t r = kcast_redundancy_for(100, 7, 0.9999);
  EXPECT_LT(gatt_send_energy_mj(100), kcast_send_energy_mj(100, r));
}

TEST(BleModel, KcastBeatsSevenUnicastsAtModeratePayloads) {
  for (std::size_t bytes : {50u, 100u, 200u, 500u}) {
    const std::size_t r = kcast_redundancy_for(bytes, 7, 0.9999);
    EXPECT_LT(kcast_send_energy_mj(bytes, r), 7 * gatt_send_energy_mj(bytes))
        << bytes;
  }
}

TEST(BleModel, UnicastWinsEventuallyForHugePayloads) {
  // The per-byte slope of 7 GATT links is smaller than the k-cast's, so
  // unicasts overtake for large payloads (Fig 2b discussion).
  const std::size_t big = 4000;
  const std::size_t r = kcast_redundancy_for(big, 7, 0.9999);
  EXPECT_GT(kcast_send_energy_mj(big, r), 7 * gatt_send_energy_mj(big));
}

// -- verified-bytes and verified-signature caches -----------------------------

TEST(VerifiedCache, HalvesHonestPathRequestVerifications) {
  // Honest-path requests would pay two metered signature checks per
  // replica: pool time (handle_request) and commit time. The
  // verified-bytes cache skips the commit-time re-check for bytes the
  // replica already verified at pool time, so every replica answers
  // exactly one cache hit per committed request (the request share of
  // kVerify halves). Sync HotStuff vote certificates also re-carry
  // signatures the replica checked when the individual votes arrived;
  // the verified-signature cache makes each such tally check free
  // (sig_cache_hits).
  struct Input {
    harness::Protocol protocol;
    std::uint64_t seed;
  };
  for (const Input in : {Input{harness::Protocol::kEesmr, 17},
                         Input{harness::Protocol::kSyncHotStuff, 23}}) {
    SCOPED_TRACE(harness::protocol_name(in.protocol));
    harness::ClusterConfig cfg;
    cfg.protocol = in.protocol;
    cfg.n = 4;
    cfg.f = 1;
    cfg.seed = in.seed;
    cfg.clients = 2;
    cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
    cfg.workload.outstanding = 1;
    cfg.workload.max_requests = 10;

    harness::Cluster cluster(cfg);
    (void)cluster.run_until_accepted(20, sim::seconds(1000));
    // Quiesce so every replica finishes committing the tail requests.
    const harness::RunResult r = cluster.run_for(sim::seconds(2));
    ASSERT_EQ(r.requests_accepted, 20u);
    EXPECT_TRUE(r.safety_ok());

    std::uint64_t request_hits = 0;
    for (NodeId i = 0; i < cfg.n; ++i) {
      request_hits += cluster.replica(i).intake().verified_hits();
    }
    EXPECT_EQ(request_hits, 20u * cfg.n);
    if (in.protocol == harness::Protocol::kSyncHotStuff) {
      EXPECT_GT(r.prof.pipeline.sig_cache_hits, 0u);
    }
  }
}

}  // namespace
}  // namespace eesmr::energy
