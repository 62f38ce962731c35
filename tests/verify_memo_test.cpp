// Signature-verdict memo (src/crypto/verify_memo.hpp): one physical
// verify per (author, preimage, signature) key, per-key verdicts, FIFO
// eviction accounting, exact matching under a shared fingerprint, and
// the fingerprint itself (src/crypto/fingerprint.hpp).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/crypto/fingerprint.hpp"
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

TEST(VerifyMemo, TriplesSharingAFingerprintKeepSeparateVerdicts) {
  // The fingerprint only indexes the memo: every entry keeps its exact
  // triple, so triples forced onto one fingerprint keep their own
  // verdicts, including two that split the same bytes differently
  // between preimage and signature.
  VerifyMemo memo;
  constexpr std::uint64_t kFp = 42;
  const Bytes a = to_bytes(std::string("vote A"));
  const Bytes b = to_bytes(std::string("vote B"));
  const Bytes sig = to_bytes(std::string("sig"));
  const Bytes a_head = to_bytes(std::string("vote "));
  const Bytes a_tail_sig = to_bytes(std::string("Asig"));
  int runs = 0;
  const auto verdict = [&runs](bool ok) {
    return [&runs, ok] {
      ++runs;
      return ok;
    };
  };
  EXPECT_TRUE(memo.check(kFp, 1, a, sig, verdict(true)));
  EXPECT_FALSE(memo.check(kFp, 1, b, sig, verdict(false)));
  EXPECT_FALSE(memo.check(kFp, 2, a, sig, verdict(false)));
  EXPECT_FALSE(memo.check(kFp, 1, a_head, a_tail_sig, verdict(false)));
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_TRUE(memo.check(kFp, 1, a, sig, verdict(false)));
  EXPECT_FALSE(memo.check(kFp, 1, b, sig, verdict(true)));
  EXPECT_FALSE(memo.check(kFp, 2, a, sig, verdict(true)));
  EXPECT_FALSE(memo.check(kFp, 1, a_head, a_tail_sig, verdict(true)));
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(memo.hits(), 4u);
}

TEST(VerifyMemo, EvictionRemovesTheOldestOfTriplesSharingAFingerprint) {
  VerifyMemo memo;
  constexpr std::uint64_t kFp = 7;
  const Bytes sig = to_bytes(std::string("s"));
  for (std::size_t i = 0; i <= VerifyMemo::kMaxEntries; ++i) {
    EXPECT_TRUE(memo.check(kFp, 0, to_bytes("k" + std::to_string(i)), sig,
                           [] { return true; }));
  }
  EXPECT_EQ(memo.wasted(), 1u);
  // "k0" went; "k1" and the newest entry stay.
  const auto peek = [&](std::size_t i) {
    return memo.peek(kFp, 0, to_bytes("k" + std::to_string(i)), sig);
  };
  EXPECT_EQ(peek(0), std::nullopt);
  EXPECT_EQ(peek(1), std::optional<bool>(true));
  EXPECT_EQ(peek(VerifyMemo::kMaxEntries), std::optional<bool>(true));
}

TEST(VerifyMemo, PeekCountsNoHitAndInsertsNothing) {
  VerifyMemo memo;
  const Bytes preimage = to_bytes(std::string("frame"));
  const Bytes other = to_bytes(std::string("other frame"));
  const Bytes sig = to_bytes(std::string("sig"));
  const std::uint64_t fp = fingerprint(3, preimage, sig);
  // A peek at an unknown triple stores nothing: the next check runs.
  EXPECT_EQ(memo.peek(fp, 3, preimage, sig), std::nullopt);
  int runs = 0;
  EXPECT_FALSE(memo.check(3, preimage, sig, [&runs] {
    ++runs;
    return false;
  }));
  EXPECT_EQ(runs, 1);
  // A peek at a stored triple reads its verdict and counts no hit.
  EXPECT_EQ(memo.peek(fp, 3, preimage, sig), std::optional<bool>(false));
  EXPECT_EQ(memo.peek(fp, 3, preimage, sig), std::optional<bool>(false));
  EXPECT_EQ(memo.hits(), 0u);
  // A triple sharing the fingerprint has no verdict.
  EXPECT_EQ(memo.peek(fp, 3, other, sig), std::nullopt);
  // A peeked-only entry is never hit: its eviction counts as wasted.
  for (std::size_t i = 0; i < VerifyMemo::kMaxEntries; ++i) {
    EXPECT_TRUE(memo.check(3, to_bytes("k" + std::to_string(i)), sig,
                           [] { return true; }));
  }
  EXPECT_EQ(memo.wasted(), 1u);
  EXPECT_EQ(memo.peek(fp, 3, preimage, sig), std::nullopt);
}

TEST(VerifyMemo, PrecomputedFingerprintMatchesTheComputedOne) {
  VerifyMemo memo;
  const Bytes preimage = to_bytes(std::string("frame"));
  const Bytes sig = to_bytes(std::string("sig"));
  EXPECT_TRUE(memo.check(5, preimage, sig, [] { return true; }));
  EXPECT_TRUE(memo.check(fingerprint(5, preimage, sig), 5, preimage, sig,
                         [] { return false; }));
  EXPECT_EQ(memo.hits(), 1u);
}

TEST(Fingerprint, IgnoresAlignmentAndSeesEveryByte) {
  // Loads go through memcpy: the same bytes at an odd address give the
  // same fingerprint. Flipping any one bit of any one byte changes it,
  // at every length across the tail cases (0-3, 4-8, 9-16, > 16 bytes).
  Bytes buf(72);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t len = 0; len <= 64; ++len) {
    const BytesView at0(buf.data(), len);
    const BytesView at1(buf.data() + 1, len);
    const Bytes copy(at1.begin(), at1.end());
    EXPECT_EQ(fingerprint(at1), fingerprint(copy)) << len;
    const std::uint64_t fp = fingerprint(at0);
    for (std::size_t i = 0; i < len; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped(at0.begin(), at0.end());
        flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_NE(fingerprint(flipped), fp) << len << " " << i << " " << bit;
      }
    }
  }
  // Length, seed and the preimage/signature split all count.
  EXPECT_NE(fingerprint(Bytes{0}), fingerprint(Bytes{0, 0}));
  EXPECT_NE(fingerprint(buf, 1), fingerprint(buf, 2));
  EXPECT_NE(fingerprint(1, Bytes{1, 2}, Bytes{3}),
            fingerprint(1, Bytes{1}, Bytes{2, 3}));
  EXPECT_NE(fingerprint(1, Bytes{1}, Bytes{2}),
            fingerprint(2, Bytes{1}, Bytes{2}));
}

}  // namespace
}  // namespace eesmr::crypto
