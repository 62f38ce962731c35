#include "src/crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "src/common/hex.hpp"

namespace eesmr::crypto {
namespace {

// RFC 4231 test vectors for HMAC-SHA-256.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes(std::string("Hi There"));
  EXPECT_EQ(hex_encode(hmac(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = to_bytes(std::string("Jefe"));
  const Bytes data = to_bytes(std::string("what do ya want for nothing?"));
  EXPECT_EQ(hex_encode(hmac(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_encode(hmac(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4) {
  Bytes key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);
  const Bytes data(50, 0xcd);
  EXPECT_EQ(hex_encode(hmac(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Bytes data = to_bytes(
      std::string("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_encode(hmac(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7) {
  // 131-byte key and 152-byte data: both longer than one block.
  const Bytes key(131, 0xaa);
  const Bytes data = to_bytes(std::string(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm."));
  ASSERT_EQ(data.size(), 152u);
  EXPECT_EQ(hex_encode(hmac(key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, KeyedStateMatchesOneShot) {
  for (std::size_t key_len : {0u, 32u, 64u, 65u, 131u}) {
    Bytes key(key_len);
    for (std::size_t i = 0; i < key_len; ++i) {
      key[i] = static_cast<std::uint8_t>(i * 13 + 7);
    }
    const HmacSha256Key keyed(key);
    for (std::size_t msg_len : {0u, 1u, 31u, 55u, 56u, 64u, 200u}) {
      const Bytes msg(msg_len, static_cast<std::uint8_t>(msg_len));
      EXPECT_EQ(keyed.mac(msg), hmac_sha256(key, msg))
          << "key_len=" << key_len << " msg_len=" << msg_len;
    }
  }
}

TEST(Hmac, KeyedStateIsReusable) {
  const HmacSha256Key keyed(to_bytes(std::string("Jefe")));
  const Bytes data = to_bytes(std::string("what do ya want for nothing?"));
  for (int i = 0; i < 3; ++i) {
    const Sha256Digest mac = keyed.mac(data);
    EXPECT_EQ(hex_encode(BytesView(mac.data(), mac.size())),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  }
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const Bytes msg = to_bytes(std::string("message"));
  EXPECT_NE(hmac(to_bytes(std::string("k1")), msg),
            hmac(to_bytes(std::string("k2")), msg));
}

TEST(Hmac, MacEqualRejectsLengthMismatch) {
  EXPECT_FALSE(mac_equal(Bytes{1, 2, 3}, Bytes{1, 2}));
  EXPECT_TRUE(mac_equal(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(mac_equal(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
}

}  // namespace
}  // namespace eesmr::crypto
