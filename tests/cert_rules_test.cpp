// smr::CertRules without a replica: the individual and aggregate
// certificate rules, the verified-signature and verified-aggregate
// caches, their hit counting and their low-water GC.
#include "src/smr/cert_rules.hpp"

#include <gtest/gtest.h>

#include "src/crypto/fingerprint.hpp"

namespace eesmr::smr {
namespace {

constexpr std::size_t kN = 5;

CertSignatures individual(std::vector<NodeId> authors) {
  CertSignatures c;
  for (const NodeId a : authors) {
    c.sigs.emplace_back(a, Bytes{static_cast<std::uint8_t>(a), 0x5A});
  }
  return c;
}

CertSignatures aggregate(std::size_t width, std::vector<NodeId> signers,
                         std::uint64_t gen) {
  CertSignatures c;
  c.scheme = CertScheme::kAggregate;
  c.gen = gen;
  c.signers = crypto::SignerBitset(width);
  for (const NodeId id : signers) c.signers.set(id);
  c.agg_sig = Bytes(crypto::kAggSignatureBytes, 0x33);
  return c;
}

TEST(CertRules, IndividualNeedsQuorumDistinctReplicaAuthors) {
  const CertRules rules(kN);
  EXPECT_TRUE(rules.individual_ok(individual({0, 2, 4}), 3));
  EXPECT_TRUE(rules.individual_ok(individual({4, 0, 2, 1}), 3));
  EXPECT_FALSE(rules.individual_ok(individual({0, 2}), 3));  // below quorum
  EXPECT_FALSE(rules.individual_ok(individual({0, 2, 5}), 3));  // a client
  EXPECT_FALSE(rules.individual_ok(individual({0, 2, 2}), 3));  // twice
  EXPECT_FALSE(rules.individual_ok(individual({0, 2, 0, 1}), 3));
}

TEST(CertRules, AggregateNeedsWidthQuorumAndAKnownGeneration) {
  const CertRules rules(kN);
  MembershipState membership(4);  // replica 4 is a spare
  EXPECT_TRUE(rules.aggregate_ok(aggregate(kN, {0, 1, 3}, 0), 3, membership));
  EXPECT_TRUE(rules.aggregate_ok(aggregate(4, {0, 1, 3}, 0), 3, membership));
  // A bitset wider than the replica set.
  EXPECT_FALSE(
      rules.aggregate_ok(aggregate(kN + 1, {0, 1, 3}, 0), 3, membership));
  EXPECT_FALSE(rules.aggregate_ok(aggregate(kN, {0, 1}, 0), 3, membership));
  // The spare is no signer of generation 0; generation 1 is unknown.
  EXPECT_FALSE(
      rules.aggregate_ok(aggregate(kN, {0, 1, 4}, 0), 3, membership));
  EXPECT_FALSE(
      rules.aggregate_ok(aggregate(kN, {0, 1, 3}, 1), 3, membership));

  MembershipPolicy admit;
  admit.generation = 1;
  for (const NodeId id : {0u, 1u, 2u, 4u}) admit.signers.push_back({id, 1});
  ASSERT_TRUE(membership.apply(admit));
  EXPECT_TRUE(rules.aggregate_ok(aggregate(kN, {0, 1, 4}, 1), 3, membership));
  EXPECT_FALSE(
      rules.aggregate_ok(aggregate(kN, {0, 1, 3}, 1), 3, membership));
  // Certificates tagged with the previous generation still check.
  EXPECT_TRUE(rules.aggregate_ok(aggregate(kN, {0, 1, 3}, 0), 3, membership));
}

TEST(CertRules, LookupAnswersRememberedSignaturesAndCountsHits) {
  CertRules rules(kN);
  const Bytes preimage{1, 2, 3};
  const CertSignatures cert = individual({0, 2, 3});
  const auto fp = [&](std::size_t i) {
    return crypto::fingerprint(cert.sigs[i].first, preimage,
                               cert.sigs[i].second);
  };
  rules.remember_sig(fp(2), 7);

  const auto& found = rules.lookup(cert, preimage);
  ASSERT_EQ(found.size(), 3u);
  for (std::size_t i = 0; i < found.size(); ++i) {
    EXPECT_EQ(found[i].fp, fp(i));
    EXPECT_EQ(found[i].cached, i == 2) << i;
  }
  EXPECT_EQ(rules.hits(), 1u);

  // The same signatures over another preimage are other triples.
  const auto& other = rules.lookup(cert, Bytes{9});
  for (const auto& f : other) EXPECT_FALSE(f.cached);
  EXPECT_EQ(rules.hits(), 1u);

  rules.remember_sig(fp(0), 8);
  EXPECT_TRUE(rules.lookup(cert, preimage)[0].cached);
  EXPECT_EQ(rules.hits(), 3u);
}

TEST(CertRules, AggregateKeyCoversPreimageSignersAndSignature) {
  CertRules rules(kN);
  const Bytes preimage{4, 5};
  const CertSignatures cert = aggregate(kN, {0, 1, 3}, 0);
  const auto key = CertRules::agg_key(preimage, cert);
  CertSignatures other_signers = aggregate(kN, {0, 1, 2}, 0);
  CertSignatures other_sig = cert;
  other_sig.agg_sig[0] ^= 1;
  EXPECT_NE(CertRules::agg_key(Bytes{4, 6}, cert), key);
  EXPECT_NE(CertRules::agg_key(preimage, other_signers), key);
  EXPECT_NE(CertRules::agg_key(preimage, other_sig), key);

  EXPECT_FALSE(rules.agg_cached(key));
  rules.remember_agg(key, 3);
  EXPECT_TRUE(rules.agg_cached(key));
  EXPECT_FALSE(rules.agg_cached(CertRules::agg_key(preimage, other_sig)));
  EXPECT_EQ(rules.hits(), 1u);
}

TEST(CertRules, GcDropsEntriesAtOrBelowTheMark) {
  CertRules rules(kN);
  const Bytes preimage{7};
  const CertSignatures cert = individual({0, 1});
  const auto& found = rules.lookup(cert, preimage);
  const std::uint64_t fp0 = found[0].fp;
  const std::uint64_t fp1 = found[1].fp;
  rules.remember_sig(fp0, 4);
  rules.remember_sig(fp1, 5);
  const auto key = CertRules::agg_key(preimage, aggregate(kN, {0, 1}, 0));
  rules.remember_agg(key, 4);

  rules.gc(4);
  const auto& after = rules.lookup(cert, preimage);
  EXPECT_FALSE(after[0].cached);
  EXPECT_TRUE(after[1].cached);
  EXPECT_FALSE(rules.agg_cached(key));
  rules.gc(5);
  EXPECT_FALSE(rules.lookup(cert, preimage)[1].cached);
  EXPECT_EQ(rules.hits(), 1u);  // the one hit before the second GC
}

TEST(CertRules, ARepeatedFingerprintKeepsItsFirstHeight) {
  CertRules rules(kN);
  rules.remember_sig(42, 3);
  rules.remember_sig(42, 9);
  EXPECT_EQ(rules.sig_height(42), 3u);
  // Kept at its first height, it goes with the entries at or below 3.
  rules.gc(3);
  EXPECT_EQ(rules.sig_height(42), std::nullopt);
}

TEST(CertRules, FingerprintZeroIsAnOrdinaryKey) {
  CertRules rules(kN);
  EXPECT_EQ(rules.sig_height(0), std::nullopt);
  rules.remember_sig(0, 0);
  rules.remember_sig(1, 0);
  EXPECT_EQ(rules.sig_height(0), 0u);
  EXPECT_EQ(rules.sig_height(1), 0u);
  rules.gc(0);
  EXPECT_EQ(rules.sig_height(0), std::nullopt);
  rules.remember_sig(0, 2);
  EXPECT_EQ(rules.sig_height(0), 2u);
}

TEST(CertRules, SignatureCacheGrowsPastAHundredThousandEntries) {
  CertRules rules(kN);
  constexpr std::uint64_t kEntries = 150'000;
  // Keys that differ only in their high bits, and sequential ones.
  const auto key = [](std::uint64_t i) {
    return i % 2 == 0 ? i << 40 : i;
  };
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    rules.remember_sig(key(i), i / 1000);
  }
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    ASSERT_EQ(rules.sig_height(key(i)), i / 1000) << i;
  }
  EXPECT_EQ(rules.sig_height(key(kEntries)), std::nullopt);
  EXPECT_EQ(rules.sig_height(key(kEntries + 1)), std::nullopt);
}

TEST(CertRules, GcDropsExactlyTheSignaturesAtOrBelowTheHeight) {
  CertRules rules(kN);
  constexpr std::uint64_t kEntries = 5'000;
  const auto key = [](std::uint64_t i) { return i * 0x10001; };
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    rules.remember_sig(key(i), i % 100);
  }
  rules.gc(49);
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    if (i % 100 <= 49) {
      ASSERT_EQ(rules.sig_height(key(i)), std::nullopt) << i;
    } else {
      ASSERT_EQ(rules.sig_height(key(i)), i % 100) << i;
    }
  }
  // The rebuilt table takes new entries; a GC below every height keeps
  // them all.
  rules.remember_sig(key(0), 200);
  rules.gc(10);
  EXPECT_EQ(rules.sig_height(key(0)), 200u);
  EXPECT_EQ(rules.sig_height(key(50)), 50u);
  rules.gc(UINT64_MAX);
  EXPECT_EQ(rules.sig_height(key(0)), std::nullopt);
  EXPECT_EQ(rules.sig_height(key(99)), std::nullopt);
}

}  // namespace
}  // namespace eesmr::smr
