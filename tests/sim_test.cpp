#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "src/sim/rng.hpp"
#include "src/sim/scheduler.hpp"

// Counting replacement of the global allocator for this test binary: the
// allocation guard below asserts the event core's steady state performs
// zero heap allocations.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined next to a `new`, GCC flags the free() as a
// mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace eesmr::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(30, [&] { order.push_back(3); });
  sched.at(10, [&] { order.push_back(1); });
  sched.at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30);
}

TEST(Scheduler, SameTimeIsFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.at(10, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, AfterSchedulesRelative) {
  Scheduler sched;
  sched.at(100, [] {});
  sched.run();
  SimTime fired = -1;
  sched.after(50, [&] { fired = sched.now(); });
  sched.run();
  EXPECT_EQ(fired, 150);
}

TEST(Scheduler, CancelPreventsFiring) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.at(10, [&] { fired = true; });
  EXPECT_TRUE(sched.cancel(id));
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(sched.cancel(id));  // second cancel is a no-op
}

TEST(Scheduler, PastSchedulingThrows) {
  Scheduler sched;
  sched.at(100, [] {});
  sched.run();
  EXPECT_THROW(sched.at(50, [] {}), std::invalid_argument);
}

TEST(Scheduler, RunUntilAdvancesClock) {
  Scheduler sched;
  int fired = 0;
  sched.at(10, [&] { ++fired; });
  sched.at(1000, [&] { ++fired; });
  sched.run_until(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 500);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, EventsScheduledDuringRunAreProcessed) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.after(10, recurse);
  };
  sched.after(10, recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.now(), 50);
}

TEST(Scheduler, RunLimitStopsEarly) {
  Scheduler sched;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sched.at(i + 1, [&] { ++fired; });
  EXPECT_EQ(sched.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, StaleHandleDoesNotCancelTheSlotsNextEvent) {
  Scheduler sched;
  std::vector<SimTime> fired;
  // A handle whose event already fired.
  const EventId done = sched.at(10, [&] { fired.push_back(sched.now()); });
  sched.run();
  const EventId next = sched.at(20, [&] { fired.push_back(sched.now()); });
  EXPECT_NE(done, next);
  EXPECT_FALSE(sched.cancel(done));
  EXPECT_EQ(sched.pending(), 1u);
  // A handle whose event was cancelled: its stale heap entry at t=30
  // must not fire the event that reuses its slot.
  const EventId gone = sched.at(30, [&] { fired.push_back(-1); });
  EXPECT_TRUE(sched.cancel(gone));
  const EventId later = sched.at(40, [&] { fired.push_back(sched.now()); });
  EXPECT_NE(gone, later);
  EXPECT_FALSE(sched.cancel(gone));
  EXPECT_FALSE(sched.cancel(kInvalidEvent));
  EXPECT_EQ(sched.pending(), 2u);
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 40}));
}

TEST(Scheduler, SameTimeIsFifoAcrossSlotReuse) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sched.at(100, [&order, i] { order.push_back(i); }));
  }
  // Free slots out of order; the next events reuse them in reverse.
  for (const int i : {1, 5, 3}) EXPECT_TRUE(sched.cancel(ids[i]));
  for (int i = 8; i < 11; ++i) {
    sched.at(100, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 7, 8, 9, 10}));
}

TEST(Scheduler, PendingCountsLiveEventsAfterCancels) {
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(sched.at(10 * (i + 1), [] {}));
  EXPECT_EQ(sched.pending(), 5u);
  EXPECT_TRUE(sched.cancel(ids[1]));
  EXPECT_TRUE(sched.cancel(ids[3]));
  EXPECT_FALSE(sched.cancel(ids[3]));
  EXPECT_EQ(sched.pending(), 3u);
  EXPECT_EQ(sched.run(1), 1u);  // ids[0]
  EXPECT_FALSE(sched.cancel(ids[0]));
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_FALSE(sched.empty());
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.processed(), 3u);
}

TEST(Scheduler, SteadyStateSchedulingAndTimerRearmsDoNotAllocate) {
  Scheduler sched;
  // A 16-byte trivially copyable closure, the size of a network
  // delivery's (this, slot) capture.
  std::uint64_t sum = 0;
  struct Capture {
    std::uint64_t* out;
    std::uint64_t value;
  };
  const auto events = [&] {
    for (std::uint64_t i = 0; i < 10000; ++i) {
      const Capture c{&sum, i};
      const auto fn = [c] { *c.out += c.value; };
      static_assert(sizeof(fn) == 16);
      static_assert(std::is_trivially_copyable_v<decltype(fn)>);
      sched.after(static_cast<Duration>(i % 7), "test", fn);
      if (i % 16 == 15) sched.run();
    }
    sched.run();
  };
  Timer timer(sched);
  int fired = 0;
  const auto rearms = [&] {
    for (int i = 0; i < 10000; ++i) {
      timer.start(5, [&fired] { ++fired; });
      if (i % 100 == 99) sched.run();
    }
  };
  // Warm-up grows the slot table, the heap and the kind tallies.
  events();
  rearms();
  const std::size_t before = g_allocations;
  events();
  rearms();
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sum, 2 * (10000ULL * 9999 / 2));
  EXPECT_EQ(fired, 200);
}

TEST(Timer, StartCancelRestart) {
  Scheduler sched;
  Timer t(sched);
  int fired = 0;
  t.start(10, [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  t.cancel();
  sched.run();
  EXPECT_EQ(fired, 0);

  t.start(10, [&] { ++fired; });
  t.start(20, [&] { fired += 10; });  // restart replaces the pending timer
  sched.run();
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, DeadlineReflectsArming) {
  Scheduler sched;
  sched.at(100, [] {});
  sched.run();
  Timer t(sched);
  t.start(40, [] {});
  EXPECT_EQ(t.deadline(), 140);
}

TEST(Timer, RearmFromItsOwnCallbackFiresOnceAtTheNewDeadline) {
  Scheduler sched;
  Timer t(sched);
  std::vector<SimTime> fired;
  // The capture outlives the re-arm: the running callback must not be
  // destroyed by the start() it calls.
  const std::string tag(64, 'x');
  t.start(10, [&, tag] {
    t.start(5, [&] { fired.push_back(-1); });  // replaced below
    t.start(25, [&] { fired.push_back(sched.now()); });
    fired.push_back(static_cast<SimTime>(tag.size()));
  });
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{64, 35}));
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream should not simply replay the parent stream.
  Rng parent2(5);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child.next(), child2.next());
}

}  // namespace
}  // namespace eesmr::sim
