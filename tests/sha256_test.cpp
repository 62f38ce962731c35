#include "src/crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/common/hex.hpp"

namespace eesmr::crypto {
namespace {

std::string hash_hex(const std::string& msg) {
  return hex_encode(sha256(to_bytes(msg)));
}

// FIPS 180-4 / NIST example vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const auto digest = ctx.finish();
  EXPECT_EQ(hex_encode(BytesView(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes(std::string(517, 'x'));
  // Split at awkward offsets relative to the 64-byte block size.
  for (std::size_t split : {1u, 63u, 64u, 65u, 128u, 500u}) {
    Sha256 ctx;
    ctx.update(BytesView(msg).subspan(0, split));
    ctx.update(BytesView(msg).subspan(split));
    EXPECT_EQ(ctx.finish(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha256, ExactBlockBoundaryPadding) {
  // 55, 56 and 64 byte messages exercise all padding branches.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const Bytes msg(len, 'q');
    Sha256 a;
    a.update(msg);
    EXPECT_EQ(a.finish(), Sha256::hash(msg)) << "len=" << len;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 ctx;
  ctx.update(to_bytes(std::string("garbage")));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(to_bytes(std::string("abc")));
  const auto digest = ctx.finish();
  EXPECT_EQ(hex_encode(BytesView(digest.data(), digest.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256(to_bytes(std::string("a"))),
            sha256(to_bytes(std::string("b"))));
}

// --- Both compression kernels -------------------------------------------

std::string digest_hex(const Sha256Digest& d) {
  return hex_encode(BytesView(d.data(), d.size()));
}

struct KnownAnswer {
  Bytes msg;
  const char* digest;
};

// FIPS 180-4 example messages plus runs of 'a' whose lengths sit on every
// padding branch: 55 (length fits the last block), 56 and 63 (padding
// spills into an extra block), 64, 119 and 120 (the same at two blocks).
std::vector<KnownAnswer> known_answers() {
  const auto as = [](std::size_t n) { return Bytes(n, 'a'); };
  return {
      {Bytes{},
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {to_bytes(std::string("abc")),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {as(55),
       "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {to_bytes(std::string(
           "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {as(56),
       "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {as(63),
       "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {as(64),
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {as(119),
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {as(120),
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
      {as(1'000'000),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

void expect_known_answers(detail::Sha256Kernel kernel) {
  for (const KnownAnswer& ka : known_answers()) {
    const std::size_t n = ka.msg.size();
    for (std::size_t split : {std::size_t{0}, n / 2, n}) {
      EXPECT_EQ(digest_hex(detail::sha256_with(kernel, ka.msg, split)),
                ka.digest)
          << "len=" << n << " split=" << split;
    }
  }
}

TEST(Sha256Kernels, PortableKnownAnswers) {
  expect_known_answers(&detail::sha256_compress_portable);
}

TEST(Sha256Kernels, ShaNiKnownAnswers) {
  const detail::Sha256Kernel sha_ni = detail::sha256_sha_ni_kernel();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "no SHA-NI on this CPU/target; only the portable "
                    "kernel runs here";
  }
  expect_known_answers(sha_ni);
}

// The kernels must agree on arbitrary input, not just on the vectors. On
// a machine with SHA-NI, Sha256 itself runs the SHA-NI kernel, so this
// is the test that keeps the portable fallback honest there.
TEST(Sha256Kernels, KernelsAgreeOnRandomInputs) {
  const detail::Sha256Kernel portable = &detail::sha256_compress_portable;
  const detail::Sha256Kernel sha_ni = detail::sha256_sha_ni_kernel();
  std::mt19937_64 rng(0x5348412d4e49ull);
  for (int i = 0; i < 20'000; ++i) {
    Bytes msg(rng() % 300);
    for (std::uint8_t& b : msg) b = static_cast<std::uint8_t>(rng());
    const std::size_t split = rng() % (msg.size() + 1);

    const Sha256Digest want = detail::sha256_with(portable, msg, msg.size());
    ASSERT_EQ(detail::sha256_with(portable, msg, split), want)
        << "portable, len=" << msg.size() << " split=" << split;
    Sha256 ctx;
    ctx.update(BytesView(msg).first(split));
    ctx.update(BytesView(msg).subspan(split));
    ASSERT_EQ(ctx.finish(), want)
        << "Sha256, len=" << msg.size() << " split=" << split;
    if (sha_ni != nullptr) {
      ASSERT_EQ(detail::sha256_with(sha_ni, msg, split), want)
          << "SHA-NI, len=" << msg.size() << " split=" << split;
    }
  }
}

}  // namespace
}  // namespace eesmr::crypto
