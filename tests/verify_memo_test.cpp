// Signature-verdict memo (src/crypto/verify_memo.hpp): one physical
// verify per (author, preimage, signature) key, per-key verdicts, and
// FIFO eviction accounting.
#include <gtest/gtest.h>

#include <string>

#include "src/crypto/signer.hpp"
#include "src/crypto/verify_memo.hpp"

namespace eesmr::crypto {
namespace {

TEST(VerifyMemo, RunsOncePerKeyAndLaterChecksHit) {
  // Cross-node memoization: the first receiver of a frame verifies; the
  // other receivers of the same frame read the stored verdict.
  VerifyMemo memo;
  const Bytes preimage = to_bytes(std::string("frame"));
  const Bytes sig = to_bytes(std::string("sig"));
  int runs = 0;
  const auto fn = [&runs] {
    ++runs;
    return true;
  };
  EXPECT_TRUE(memo.check(1, preimage, sig, fn));
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_TRUE(memo.check(1, preimage, sig, fn));
  EXPECT_TRUE(memo.check(1, preimage, sig, fn));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(memo.hits(), 2u);
  // A different author is a different key.
  EXPECT_TRUE(memo.check(2, preimage, sig, fn));
  EXPECT_EQ(runs, 2);
}

TEST(VerifyMemo, FalseVerdictIsScopedToItsOwnKey) {
  // A forged signature over an honest preimage gets its own entry: its
  // `false` must not leak to the genuine signature, nor vice versa.
  const auto keyring =
      Keyring::simulated(SchemeId::kRsa1024, 2, /*seed=*/7);
  const Bytes msg = to_bytes(std::string("vote payload"));
  const Bytes good = keyring->signer(0).sign(msg);
  const Bytes forged = keyring->signer(0).sign(to_bytes(std::string("x")));
  VerifyMemo memo;
  int runs = 0;
  const auto check = [&](const Bytes& sig) {
    return memo.check(0, msg, sig, [&] {
      ++runs;
      return keyring->verify(0, msg, sig);
    });
  };
  EXPECT_FALSE(check(forged));
  EXPECT_TRUE(check(good));
  EXPECT_FALSE(check(forged));
  EXPECT_TRUE(check(good));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(memo.hits(), 2u);
}

TEST(VerifyMemo, FifoEvictionCountsNeverHitEntriesAsWasted) {
  VerifyMemo memo;
  const Bytes sig = to_bytes(std::string("s"));
  // Entry "k0" is hit once; every other entry is checked only once.
  EXPECT_TRUE(memo.check(0, to_bytes(std::string("k0")), sig,
                         [] { return true; }));
  EXPECT_TRUE(memo.check(0, to_bytes(std::string("k0")), sig,
                         [] { return false; }));
  for (std::size_t i = 1; i < VerifyMemo::kMaxEntries + 100; ++i) {
    EXPECT_TRUE(memo.check(0, to_bytes("k" + std::to_string(i)), sig,
                           [] { return true; }));
  }
  // 100 evictions in insertion order: "k0" (hit) and k1..k99 (never hit).
  EXPECT_EQ(memo.wasted(), 99u);
  // The evicted "k0" is gone: checking it again runs the verify.
  int runs = 0;
  EXPECT_TRUE(memo.check(0, to_bytes(std::string("k0")), sig, [&runs] {
    ++runs;
    return true;
  }));
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace eesmr::crypto
