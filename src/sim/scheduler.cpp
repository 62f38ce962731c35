#include "src/sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace eesmr::sim {

EventId Scheduler::at(SimTime when, std::function<void()> fn) {
  return at(when, "other", std::move(fn));
}

EventId Scheduler::at(SimTime when, const char* kind,
                      std::function<void()> fn) {
  if (when < now_) {
    throw std::invalid_argument("Scheduler::at: time in the past");
  }
  assert(kind != nullptr);
  std::uint32_t slot = free_slot_;
  if (slot != kNoSlot) {
    free_slot_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.kind = kind;
  ++pending_;
  heap_.push_back(Key{when, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

EventId Scheduler::after(Duration delay, std::function<void()> fn) {
  return at(now_ + delay, "other", std::move(fn));
}

EventId Scheduler::after(Duration delay, const char* kind,
                         std::function<void()> fn) {
  return at(now_ + delay, kind, std::move(fn));
}

bool Scheduler::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.kind == nullptr || s.gen != gen) return false;  // fired or cancelled
  release(slot);
  return true;
}

void Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Destroy the callback only once the bookkeeping is consistent: its
  // captures' destructors may call back into the scheduler.
  std::function<void()> dead = std::move(s.fn);
  s.kind = nullptr;
  if (++s.gen == 0) s.gen = 1;  // keep every EventId != kInvalidEvent
  s.next_free = free_slot_;
  free_slot_ = slot;
  --pending_;
}

void Scheduler::count_fired(const char* kind) {
  for (auto& [tag, count] : fired_kinds_) {
    if (tag == kind) {
      ++count;
      return;
    }
  }
  fired_kinds_.push_back({kind, 1});
}

std::vector<std::pair<std::string, std::uint64_t>> Scheduler::fired_by_kind()
    const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [tag, count] : fired_kinds_) {
    bool merged = false;
    for (auto& [name, total] : out) {
      if (name == tag) {
        total += count;
        merged = true;
        break;
      }
    }
    if (!merged) out.push_back({tag, count});
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Scheduler::drop_stale() {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].gen != heap_.front().gen) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool Scheduler::fire_next() {
  drop_stale();
  if (heap_.empty()) return false;
  const Key key = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Move the callback out and free its slot first: the callback may
  // schedule (growing slots_) or re-use the slot.
  Slot& s = slots_[key.slot];
  const char* kind = s.kind;
  std::function<void()> fn = std::move(s.fn);
  release(key.slot);
  assert(key.when >= now_);
  now_ = key.when;
  ++processed_;
  count_fired(kind);
  fn();
  return true;
}

std::size_t Scheduler::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && fire_next()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime until) {
  std::size_t n = 0;
  for (;;) {
    drop_stale();
    if (heap_.empty() || heap_.front().when > until) break;
    fire_next();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

void Timer::start(Duration delay, std::function<void()> fn) {
  start(delay, "timer", std::move(fn));
}

void Timer::start(Duration delay, const char* kind, std::function<void()> fn) {
  cancel();
  deadline_ = sched_->now() + delay;
  fn_ = std::move(fn);
  id_ = sched_->after(delay, kind, [this] { fire(); });
}

void Timer::fire() {
  // Disarm, and move the callback out: it may re-arm this timer, which
  // replaces fn_ while the old callback is still running.
  id_ = kInvalidEvent;
  std::function<void()> fn = std::move(fn_);
  fn();
}

void Timer::cancel() {
  if (id_ != kInvalidEvent) {
    sched_->cancel(id_);
    id_ = kInvalidEvent;
    fn_ = nullptr;
  }
}

}  // namespace eesmr::sim
