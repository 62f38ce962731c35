#include "src/harness/checkers.hpp"

#include <algorithm>

namespace eesmr::harness {

std::uint64_t SafetyChecker::observe(NodeId node,
                                     const std::vector<smr::Block>& log) {
  std::uint64_t fresh_violations = 0;
  std::uint64_t& frontier = frontier_[node];
  // The retained log is height-ascending: jump straight to the first
  // unabsorbed block so a tick costs O(new blocks), not O(log).
  auto it = std::partition_point(
      log.begin(), log.end(),
      [&](const smr::Block& b) { return b.height <= frontier; });
  for (; it != log.end(); ++it) {
    const smr::BlockHash h = it->hash();  // memoized: no SHA-256 here
    const auto [slot, fresh] = canon_.try_emplace(it->height, h);
    if (!fresh && slot->second != h) {
      ++violations_;
      ++fresh_violations;
    }
  }
  if (!log.empty()) frontier = std::max(frontier, log.back().height);
  return fresh_violations;
}

void SafetyChecker::prune_below(std::uint64_t height) {
  canon_.erase(canon_.begin(), canon_.lower_bound(height));
}

void LivenessChecker::sample(sim::SimTime now, std::uint64_t frontier,
                             bool load_pending) {
  if (!seen_) {
    seen_ = true;
    frontier_ = frontier;
    last_advance_ = now;
    return;
  }
  if (frontier > frontier_) {
    max_closed_ = std::max(max_closed_, now - last_advance_);
    frontier_ = frontier;
    last_advance_ = now;
  } else if (!load_pending) {
    // Idle chain with nothing left to commit: whatever gap was open up
    // to here was a real wait (fold it in), but from now on the clock
    // restarts — an idle tail is not a stall.
    max_closed_ = std::max(max_closed_, now - last_advance_);
    last_advance_ = now;
  }
}

sim::Duration LivenessChecker::max_stall(sim::SimTime now) const {
  if (!seen_) return 0;
  return std::max(max_closed_, now - last_advance_);
}

}  // namespace eesmr::harness
