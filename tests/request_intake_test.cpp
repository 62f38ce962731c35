// RequestIntake on its own, with no cluster, network or scheduler: the
// per-client cap, the garbage-flood early drop and the verified-bytes
// cache.
#include "src/smr/request_intake.hpp"

#include <gtest/gtest.h>

#include <string>

namespace eesmr::smr {
namespace {

using Screen = RequestIntake::Screen;

TEST(RequestIntake, CapDropIsCounted) {
  RequestIntake intake(/*client_pending_cap=*/2);
  EXPECT_EQ(intake.screen(9, 1), Screen::kAdmit);
  EXPECT_EQ(intake.screen(9, 2), Screen::kCapDrop);
  EXPECT_EQ(intake.screen(9, 5), Screen::kCapDrop);
  EXPECT_EQ(intake.cap_drops(), 2u);
  EXPECT_EQ(intake.early_drops(), 0u);
  // Cap 0 is unbounded.
  RequestIntake open(0);
  EXPECT_EQ(open.screen(9, 1000), Screen::kAdmit);
  EXPECT_EQ(open.cap_drops(), 0u);
}

TEST(RequestIntake, EarlyDropEngagesAfterThreeBadSignatures) {
  RequestIntake intake(0);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(intake.screen(9, 0), Screen::kAdmit);
    intake.verified(9, false);
  }
  EXPECT_EQ(intake.screen(9, 0), Screen::kAdmit);
  intake.verified(9, false);  // third consecutive failure: engaged
  EXPECT_EQ(intake.screen(9, 0), Screen::kEarlyDrop);
  EXPECT_EQ(intake.early_drops(), 1u);
  // Other clients are unaffected.
  EXPECT_EQ(intake.screen(10, 0), Screen::kAdmit);
}

TEST(RequestIntake, EarlyDropReadmitsOneFrameInSixteen) {
  RequestIntake intake(0);
  for (std::uint32_t i = 0; i < RequestIntake::kBadSigThreshold; ++i) {
    intake.verified(9, false);
  }
  int admitted = 0;
  for (int frame = 1; frame <= 32; ++frame) {
    if (intake.screen(9, 0) == Screen::kAdmit) {
      ++admitted;
      EXPECT_EQ(frame % 16, 0) << "frame " << frame;
    }
  }
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(intake.early_drops(), 30u);
  // A re-admitted frame that verifies disarms the filter.
  intake.verified(9, true);
  EXPECT_EQ(intake.screen(9, 0), Screen::kAdmit);
  EXPECT_EQ(intake.screen(9, 0), Screen::kAdmit);
}

TEST(RequestIntake, VerifiedBytesAreSingleUse) {
  RequestIntake intake(0);
  const Bytes cmd = to_bytes(std::string("signed request"));
  EXPECT_FALSE(intake.take_verified(cmd));
  intake.remember_verified(cmd, 4);
  // Other bytes (a leader's altered copy) miss.
  EXPECT_FALSE(intake.take_verified(to_bytes(std::string("altered"))));
  EXPECT_TRUE(intake.take_verified(cmd));
  EXPECT_FALSE(intake.take_verified(cmd));  // consumed
  EXPECT_EQ(intake.verified_hits(), 1u);
}

TEST(RequestIntake, AlteredBytesMissAndFirstHeightIsKept) {
  RequestIntake intake(0);
  const Bytes cmd = to_bytes(std::string("signed request bytes"));
  intake.remember_verified(cmd, 4);
  // Remembering the same bytes again keeps the first height.
  intake.remember_verified(cmd, 9);
  // Every one-byte alteration, a truncation and an extension miss.
  for (std::size_t i = 0; i < cmd.size(); ++i) {
    Bytes altered = cmd;
    altered[i] ^= 0x01;
    EXPECT_FALSE(intake.take_verified(altered)) << i;
  }
  EXPECT_FALSE(intake.take_verified(BytesView(cmd).first(cmd.size() - 1)));
  Bytes extended = cmd;
  extended.push_back(0);
  EXPECT_FALSE(intake.take_verified(extended));
  EXPECT_EQ(intake.verified_hits(), 0u);
  // One entry, at height 4: the GC at 4 drops it.
  intake.gc_verified(4);
  EXPECT_FALSE(intake.take_verified(cmd));
  EXPECT_EQ(intake.verified_hits(), 0u);
}

TEST(RequestIntake, VerifiedBytesAreGcdAtTheLowWaterMark) {
  RequestIntake intake(0);
  const Bytes old_cmd = to_bytes(std::string("old"));
  const Bytes edge_cmd = to_bytes(std::string("edge"));
  const Bytes new_cmd = to_bytes(std::string("new"));
  intake.remember_verified(old_cmd, 3);
  intake.remember_verified(edge_cmd, 8);
  intake.remember_verified(new_cmd, 9);
  intake.gc_verified(8);
  EXPECT_FALSE(intake.take_verified(old_cmd));
  EXPECT_FALSE(intake.take_verified(edge_cmd));
  EXPECT_TRUE(intake.take_verified(new_cmd));
  // A restore voids what is left.
  intake.remember_verified(old_cmd, 20);
  intake.clear_verified();
  EXPECT_FALSE(intake.take_verified(old_cmd));
}

TEST(RequestIntake, ForwardsAreCounted) {
  RequestIntake intake(0);
  intake.count_forward();
  intake.count_forward();
  EXPECT_EQ(intake.forwarded(), 2u);
}

}  // namespace
}  // namespace eesmr::smr
