// Always-on run oracles: every Cluster run is also a conformance check.
//
// SafetyChecker asserts Definition 2.1 DURING the run — no two honest
// replicas ever commit different blocks at the same height — by
// absorbing each honest replica's committed log incrementally every few
// hop delays. A transient divergence that checkpoint truncation would
// hide from the end-of-run RunResult::safety_ok() scan still registers
// here. LivenessChecker tracks the longest stall of the honest commit
// frontier; compared against AdversarySpec::stall_bound it turns "the
// protocol tolerates this attack" into a measurable verdict.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/sim/time.hpp"
#include "src/smr/block.hpp"

namespace eesmr::harness {

class SafetyChecker {
 public:
  /// Absorb `log` — node `node`'s retained committed log in ascending
  /// height order. Only heights above the node's previously absorbed
  /// frontier are (re)examined, so repeated calls are O(new blocks).
  /// Returns the number of newly detected conflicting commits.
  std::uint64_t observe(NodeId node, const std::vector<smr::Block>& log);

  [[nodiscard]] std::uint64_t violations() const { return violations_; }

  /// Drop canonical entries below `height` (the cluster-wide stable
  /// checkpoint frontier): every honest log is truncated there already,
  /// so no further commit can land below it.
  void prune_below(std::uint64_t height);

 private:
  /// First committed hash seen per height (the canon every later commit
  /// at that height must match).
  std::map<std::uint64_t, smr::BlockHash> canon_;
  /// Highest height absorbed per node.
  std::map<NodeId, std::uint64_t> frontier_;
  std::uint64_t violations_ = 0;
};

class LivenessChecker {
 public:
  /// Record the honest commit frontier at `now`. Call monotonically.
  /// `load_pending` is the workload-awareness input: pass false while no
  /// client has offered load waiting to commit (budgets exhausted and
  /// nothing outstanding) — the open gap up to `now` is then closed and
  /// the idle tail accrues no stall. A real stall that drains before the
  /// load runs out still registers in full, because the gap is closed
  /// *after* folding it into the maximum. Callers without workload
  /// knowledge keep the old fixed-window behaviour via the default.
  void sample(sim::SimTime now, std::uint64_t frontier,
              bool load_pending = true);

  /// Longest observed gap between frontier advances, including the
  /// still-open gap ending at `now`. With workload-aware sampling the
  /// idle tail after the offered load finished does not count.
  [[nodiscard]] sim::Duration max_stall(sim::SimTime now) const;

  [[nodiscard]] std::uint64_t frontier() const { return frontier_; }

 private:
  bool seen_ = false;
  std::uint64_t frontier_ = 0;
  sim::SimTime last_advance_ = 0;
  sim::Duration max_closed_ = 0;
};

}  // namespace eesmr::harness
