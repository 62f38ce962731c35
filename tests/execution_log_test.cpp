// ExecutionLog on its own, with no cluster, network or scheduler: the
// replay lookup, the contiguous frontier, checkpoint-time GC and the
// snapshot round trip.
#include "src/smr/execution_log.hpp"

#include <gtest/gtest.h>

#include <string>

namespace eesmr::smr {
namespace {

Bytes result(const std::string& s) { return to_bytes(s); }

TEST(ExecutionLog, DuplicateCopyReplaysWithoutANewRecord) {
  ExecutionLog log;
  EXPECT_EQ(log.find(9, 1), nullptr);
  log.record(9, 1, result("ok"), /*height=*/3);
  const Bytes* replay = log.find(9, 1);
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(to_string(*replay), "ok");
  EXPECT_EQ(log.size(), 1u);
  // Another client's same req_id is a different request.
  EXPECT_EQ(log.find(10, 1), nullptr);
}

TEST(ExecutionLog, FrontierCrossesAnOutOfOrderGapButNotAShedId) {
  ExecutionLog log;
  // Id 2 executes before id 1: the frontier waits, then jumps both.
  log.record(9, 2, result("b"), 1);
  EXPECT_FALSE(log.at_or_below_frontier(9, 1));
  EXPECT_FALSE(log.at_or_below_frontier(9, 2));
  log.record(9, 1, result("a"), 2);
  EXPECT_TRUE(log.at_or_below_frontier(9, 1));
  EXPECT_TRUE(log.at_or_below_frontier(9, 2));
  // Id 3 was shed by admission control and never executed; id 4 did.
  // The frontier stays below the gap, so 3's retransmits still pass.
  log.record(9, 4, result("d"), 3);
  EXPECT_FALSE(log.at_or_below_frontier(9, 3));
  EXPECT_FALSE(log.at_or_below_frontier(9, 4));
  EXPECT_FALSE(log.at_or_below_frontier(8, 1));  // unknown client
}

TEST(ExecutionLog, CheckpointGcDropsOnlyEntriesAtOrBelowThePreviousCut) {
  ExecutionLog log;
  log.record(9, 1, result("a"), 10);
  log.record(9, 2, result("b"), 16);
  log.record(9, 3, result("c"), 20);
  // First checkpoint: the previous cut is 0, nothing has aged out.
  log.gc_at_checkpoint(16);
  EXPECT_EQ(log.cut(), 16u);
  EXPECT_EQ(log.size(), 3u);
  // Second: entries at or below 16 survived a full interval and go.
  log.gc_at_checkpoint(32);
  EXPECT_EQ(log.cut(), 32u);
  EXPECT_EQ(log.find(9, 1), nullptr);
  EXPECT_EQ(log.find(9, 2), nullptr);
  ASSERT_NE(log.find(9, 3), nullptr);
  // The frontier is untouched by GC: GC'd ids still count as executed.
  EXPECT_TRUE(log.at_or_below_frontier(9, 3));
}

TEST(ExecutionLog, SnapshotRestoreRoundTripsAndReplaces) {
  ExecutionLog src;
  src.record(9, 1, result("a"), 5);
  src.record(9, 3, result("c"), 6);
  src.record(11, 1, result("x"), 6);
  src.add_commands(40);
  const checkpoint::SnapshotPayload snap = src.snapshot();
  EXPECT_TRUE(snap.app_snapshot.empty());
  EXPECT_EQ(snap.executed_cmds, 40u);

  // The destination holds state of its own, which restore must discard.
  ExecutionLog dst;
  dst.record(9, 2, result("stale"), 4);
  dst.record(12, 1, result("stale"), 4);
  dst.add_commands(7);
  dst.restore(checkpoint::SnapshotPayload::decode(snap.encode()), 48);
  EXPECT_EQ(dst.find(9, 2), nullptr);
  EXPECT_EQ(dst.find(12, 1), nullptr);
  EXPECT_FALSE(dst.at_or_below_frontier(12, 1));
  EXPECT_EQ(dst.executed_cmds(), 40u);
  EXPECT_EQ(dst.cut(), 48u);
  EXPECT_EQ(dst.size(), 3u);
  ASSERT_NE(dst.find(9, 3), nullptr);
  EXPECT_EQ(to_string(*dst.find(9, 3)), "c");
  EXPECT_TRUE(dst.at_or_below_frontier(9, 1));
  EXPECT_FALSE(dst.at_or_below_frontier(9, 2));
  // A restored log snapshots to the same bytes as its source.
  EXPECT_EQ(dst.snapshot().encode(), snap.encode());
}

}  // namespace
}  // namespace eesmr::smr
