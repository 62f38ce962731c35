// Single-threaded discrete-event scheduler.
//
// Determinism contract: events scheduled for the same instant fire in the
// order they were scheduled (FIFO tie-break by sequence number), so a run
// is fully reproducible from (program, seed).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/sim/time.hpp"

namespace eesmr::sim {

/// Opaque handle for a scheduled event; used to cancel timers. Packs the
/// event's slot (low 32 bits) and that slot's generation (high 32 bits),
/// so a handle outlived by its event never matches the slot's next user.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class Scheduler {
 public:
  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (must be >= now()). `kind` is
  /// a static profiling tag (e.g. "net_deliver", "timer"); counted per
  /// kind when the event fires. Must point at storage that outlives the
  /// scheduler (string literals).
  EventId at(SimTime when, std::function<void()> fn);
  EventId at(SimTime when, const char* kind, std::function<void()> fn);

  /// Schedule `fn` after `delay` from now.
  EventId after(Duration delay, std::function<void()> fn);
  EventId after(Duration delay, const char* kind, std::function<void()> fn);

  /// Cancel a pending event. Cancelling an already-fired, already-
  /// cancelled or invalid id is a no-op. Returns true if the event was
  /// pending (and is now cancelled).
  bool cancel(EventId id);

  /// Run events until the queue drains or `limit` events fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = std::numeric_limits<std::size_t>::max());

  /// Run events with time <= until (inclusive). Time advances to `until`
  /// even if the queue drains earlier.
  std::size_t run_until(SimTime until);

  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::size_t processed() const { return processed_; }

  /// Events fired so far, by kind tag, sorted by kind name (tags merged
  /// by value, so the same literal from different TUs still aggregates).
  /// The counts sum to processed().
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  fired_by_kind() const;

 private:
  /// Heap entry: 24 bytes, ordered by (when, seq). A key whose gen no
  /// longer matches its slot's belongs to a cancelled event and is
  /// skipped when it reaches the top (lazy deletion).
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;  // FIFO among same-time events
    }
  };
  /// Callback storage, recycled through a free list. kind is nullptr
  /// while the slot is free; gen is bumped every time it is freed.
  struct Slot {
    std::function<void()> fn;
    const char* kind = nullptr;
    std::uint32_t gen = 1;
    std::uint32_t next_free = 0;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Pop cancelled keys off the top of the heap.
  void drop_stale();
  void release(std::uint32_t slot);
  bool fire_next();
  void count_fired(const char* kind);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::size_t pending_ = 0;
  /// Fired-event counts per kind tag. Scanned linearly by pointer
  /// identity first (a handful of distinct literals), falling back to a
  /// string compare for same-text tags from different TUs.
  std::vector<std::pair<const char*, std::uint64_t>> fired_kinds_;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_slot_ = kNoSlot;
};

/// RAII-style named timer owned by protocol code: start/reset/cancel a
/// single pending callback. Mirrors the paper's T_blame / T_commit usage.
class Timer {
 public:
  explicit Timer(Scheduler& sched) : sched_(&sched) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { cancel(); }

  /// (Re)arm the timer: cancels any pending firing first. The optional
  /// kind tags the event for Scheduler::fired_by_kind().
  void start(Duration delay, std::function<void()> fn);
  void start(Duration delay, const char* kind, std::function<void()> fn);
  void cancel();
  [[nodiscard]] bool armed() const { return id_ != kInvalidEvent; }
  /// Absolute expiry time; only meaningful while armed().
  [[nodiscard]] SimTime deadline() const { return deadline_; }

 private:
  void fire();

  Scheduler* sched_;
  EventId id_ = kInvalidEvent;
  SimTime deadline_ = 0;
  /// The armed callback. The scheduled event captures only `this`, so a
  /// re-arm with a small callback allocates nothing.
  std::function<void()> fn_;
};

}  // namespace eesmr::sim
