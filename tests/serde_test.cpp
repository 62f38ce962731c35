#include "src/common/serde.hpp"

#include <gtest/gtest.h>

#include "src/common/hex.hpp"

namespace eesmr {
namespace {

TEST(Serde, RoundTripScalars) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Serde, RoundTripBytesAndStrings) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.str("hello");
  w.bytes(Bytes{});
  w.str("");

  Reader r(w.buffer());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.str().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serde, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  EXPECT_EQ(hex_encode(w.buffer()), "04030201");
}

TEST(Serde, TruncatedInputThrows) {
  Writer w;
  w.u32(7);
  Reader r(w.buffer());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), SerdeError);
}

TEST(Serde, TruncatedLengthPrefixedBytesThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow but none do
  Reader r(w.buffer());
  EXPECT_THROW(r.bytes(), SerdeError);
}

TEST(Serde, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.buffer());
  r.u8();
  EXPECT_THROW(r.expect_done(), SerdeError);
}

TEST(Serde, BooleanRejectsOutOfRange) {
  Bytes data{2};
  Reader r(data);
  EXPECT_THROW(r.boolean(), SerdeError);
}

TEST(Serde, DeterministicEncoding) {
  auto encode = [] {
    Writer w;
    w.u64(99);
    w.str("abc");
    w.bytes(Bytes{9, 9});
    return w.take();
  };
  EXPECT_EQ(encode(), encode());
}

TEST(Serde, RawReadWritesExactCount) {
  Writer w;
  w.raw(Bytes{5, 6, 7, 8});
  Reader r(w.buffer());
  EXPECT_EQ(r.raw(2), (Bytes{5, 6}));
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_THROW(r.raw(3), SerdeError);
}

/// A one-field type with the decode() that try_decode wraps.
struct Tagged {
  std::uint32_t v = 0;
  static Tagged decode(BytesView bytes) {
    Reader r(bytes);
    Tagged t{r.u32()};
    r.expect_done();
    return t;
  }
};

TEST(Serde, TryDecodeTurnsMalformedInputIntoNullopt) {
  Writer w;
  w.u32(7);
  const auto ok = try_decode<Tagged>(w.buffer());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->v, 7u);
  const Bytes truncated(w.buffer().begin(), w.buffer().end() - 1);
  EXPECT_FALSE(try_decode<Tagged>(truncated).has_value());
  w.u8(0);  // trailing byte
  EXPECT_FALSE(try_decode<Tagged>(w.buffer()).has_value());
}

TEST(Hex, EncodeDecodeRoundTrip) {
  const Bytes data{0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(hex_encode(data), "0001abff");
  EXPECT_EQ(hex_decode("0001abff"), data);
  EXPECT_EQ(hex_decode("0001ABFF"), data);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(hex_decode("abc"), std::invalid_argument);
  EXPECT_THROW(hex_decode("zz"), std::invalid_argument);
}

}  // namespace
}  // namespace eesmr
