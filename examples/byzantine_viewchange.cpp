// Byzantine leader demo: the view-1 leader equivocates (proposes two
// conflicting blocks for one round). Watch the correct nodes detect the
// conflict via re-broadcast, prove it with the leader's own signatures,
// change the view, and keep committing — with identical logs everywhere.
#include <cstdio>

#include "src/harness/cluster.hpp"

using namespace eesmr;
using namespace eesmr::harness;

int main() {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kEesmr;
  cfg.n = 5;
  cfg.f = 2;
  cfg.medium = energy::Medium::kBle;
  // Node 1 leads view 1 and will propose two blocks in round 5.
  cfg.faults = {{1, smr::ByzantineMode::kEquivocate, 5}};

  Cluster cluster(cfg);
  cluster.start();

  // Step the simulation and narrate protocol state.
  std::uint64_t last_view = 1;
  for (int step = 0; step < 60; ++step) {
    cluster.scheduler().run_until(cluster.scheduler().now() +
                                  sim::milliseconds(50));
    const auto& honest = cluster.eesmr(0);
    if (honest.current_view() != last_view) {
      std::printf("[%6.2fs] node 0 entered view %llu (leader is now node "
                  "%u)\n",
                  sim::to_seconds(cluster.scheduler().now()),
                  static_cast<unsigned long long>(honest.current_view()),
                  honest.leader_of(honest.current_view()));
      last_view = honest.current_view();
    }
    if (cluster.eesmr(0).log().size() >= 8) break;
  }

  const RunResult r = cluster.snapshot();
  std::printf("\nafter the dust settles:\n");
  std::printf("  view changes: %llu\n",
              static_cast<unsigned long long>(r.view_changes));
  std::uint64_t detections = 0;
  for (NodeId i : {0u, 2u, 3u, 4u}) {
    detections += cluster.eesmr(i).equivocations_detected();
  }
  std::printf("  equivocation detections at correct nodes: %llu\n",
              static_cast<unsigned long long>(detections));
  std::printf("  committed blocks (min over correct nodes): %zu\n",
              r.min_committed());
  std::printf("  safety: %s\n", r.safety_ok() ? "ok" : "VIOLATED");

  std::printf("\ncommitted log (node 0) — note the view column jumping "
              "after the fault:\n");
  for (const smr::Block& b : r.logs[0]) {
    std::printf("  height %2llu  view %llu  round %llu  proposer %u\n",
                static_cast<unsigned long long>(b.height),
                static_cast<unsigned long long>(b.view),
                static_cast<unsigned long long>(b.round), b.proposer);
  }
  return 0;
}
