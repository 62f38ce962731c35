#include "src/crypto/signer.hpp"

#include <gtest/gtest.h>

#include "src/common/hex.hpp"

namespace eesmr::crypto {
namespace {

TEST(SchemeInfo, SignatureSizesMatchSchemes) {
  EXPECT_EQ(scheme_info(SchemeId::kHmacSha256).signature_bytes, 32u);
  EXPECT_EQ(scheme_info(SchemeId::kEcdsaBp160r1).signature_bytes, 40u);
  EXPECT_EQ(scheme_info(SchemeId::kEcdsaSecp256r1).signature_bytes, 64u);
  EXPECT_EQ(scheme_info(SchemeId::kRsa1024).signature_bytes, 128u);
  EXPECT_EQ(scheme_info(SchemeId::kRsa1260).signature_bytes, 158u);
  EXPECT_EQ(scheme_info(SchemeId::kRsa2048).signature_bytes, 256u);
}

TEST(SchemeInfo, AllSchemesEnumerated) {
  EXPECT_EQ(all_schemes().size(), 11u);
}

TEST(Keyring, SimulatedSignVerify) {
  auto ring = Keyring::simulated(SchemeId::kRsa1024, 4, 1);
  const Bytes msg = to_bytes(std::string("hello"));
  const Bytes sig = ring->signer(0).sign(msg);
  EXPECT_EQ(sig.size(), 128u);  // emulates RSA-1024 wire size
  EXPECT_TRUE(ring->verify(0, msg, sig));
}

// Wire bytes of one simulated RSA-1024 signature: the 32-byte HMAC
// followed by 96 bytes of 0xee padding. Pinned so the keyed-hash
// implementation can change without moving a single signature byte.
TEST(Keyring, SimulatedTagIsPinned) {
  auto ring = Keyring::simulated(SchemeId::kRsa1024, 4, 7);
  const Bytes msg = to_bytes(std::string("eesmr/pinned-wire-bytes"));
  const Bytes sig = ring->signer(1).sign(msg);
  EXPECT_EQ(hex_encode(sig),
            "51625aa983767d7e15e6790853cc39c26419f4c3c8fa6973cba79754cdf84e93" +
                std::string(192, 'e'));
  EXPECT_TRUE(ring->verify(1, msg, sig));
}

// The HMAC ring is the full 32-byte HMAC-SHA256 (no padding), so it
// runs the same wrong-signer checks as an emulated public-key width.
TEST(Keyring, SimulatedRejectsWrongSigner) {
  for (const SchemeId scheme :
       {SchemeId::kEcdsaSecp256r1, SchemeId::kHmacSha256}) {
    auto ring = Keyring::simulated(scheme, 4, 1);
    const Bytes msg = to_bytes(std::string("hello"));
    const Bytes sig = ring->signer(0).sign(msg);
    EXPECT_EQ(sig.size(), scheme_info(scheme).signature_bytes);
    EXPECT_TRUE(ring->verify(0, msg, sig));
    EXPECT_FALSE(ring->verify(1, msg, sig));
    EXPECT_FALSE(ring->verify(99, msg, sig));  // unknown node
  }
}

// A signature that is too short, too long (a valid tag plus one padding
// byte) or empty is rejected, and none of these throws.
TEST(Keyring, SimulatedRejectsWrongWidth) {
  auto ring = Keyring::simulated(SchemeId::kRsa1024, 2, 3);
  const Bytes msg = to_bytes(std::string("width"));
  const Bytes sig = ring->signer(0).sign(msg);
  Bytes longer = sig;
  longer.push_back(0xee);
  const Bytes shorter(sig.begin(), sig.end() - 1);
  for (const Bytes& bad : {shorter, longer, Bytes{}}) {
    bool ok = true;
    EXPECT_NO_THROW(ok = ring->verify(0, msg, bad));
    EXPECT_FALSE(ok);
  }
}

TEST(Keyring, SimulatedRejectsTamperedMessage) {
  auto ring = Keyring::simulated(SchemeId::kRsa1024, 2, 9);
  const Bytes sig = ring->signer(1).sign(to_bytes(std::string("a")));
  EXPECT_FALSE(ring->verify(1, to_bytes(std::string("b")), sig));
}

TEST(Keyring, SimulatedDeterministicAcrossInstances) {
  auto r1 = Keyring::simulated(SchemeId::kRsa1024, 3, 42);
  auto r2 = Keyring::simulated(SchemeId::kRsa1024, 3, 42);
  const Bytes msg = to_bytes(std::string("x"));
  EXPECT_EQ(r1->signer(2).sign(msg), r2->signer(2).sign(msg));
  // Different seed -> different keys.
  auto r3 = Keyring::simulated(SchemeId::kRsa1024, 3, 43);
  EXPECT_NE(r1->signer(2).sign(msg), r3->signer(2).sign(msg));
}

TEST(Keyring, SignerOutOfRangeThrows) {
  auto ring = Keyring::simulated(SchemeId::kRsa1024, 2, 1);
  EXPECT_THROW((void)ring->signer(2), std::out_of_range);
}

}  // namespace
}  // namespace eesmr::crypto
