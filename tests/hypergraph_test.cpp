#include "src/net/hypergraph.hpp"

#include <gtest/gtest.h>

namespace eesmr::net {
namespace {

TEST(Hypergraph, FullMeshDegrees) {
  const auto g = Hypergraph::full_mesh(5);
  EXPECT_EQ(g.edges().size(), 20u);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(g.d_out(i), 4u);
    EXPECT_EQ(g.d_in(i), 4u);
  }
  EXPECT_EQ(g.min_edge_degree(), 1u);
  EXPECT_EQ(g.diameter(), 1u);
}

TEST(Hypergraph, KcastRingStructure) {
  // §5.6: p_i transmits to p_{i+1..i+k}; D_out = 1, D_in = k.
  const auto g = Hypergraph::kcast_ring(10, 3);
  EXPECT_EQ(g.edges().size(), 10u);
  EXPECT_EQ(g.cap_d_out(), 1u);
  EXPECT_EQ(g.cap_d_in(), 3u);
  for (NodeId i = 0; i < 10; ++i) {
    EXPECT_EQ(g.d_out(i), 3u);  // k distinct nodes reachable
    EXPECT_EQ(g.d_in(i), 3u);   // k distinct senders heard
  }
  EXPECT_EQ(g.min_edge_degree(), 3u);
  // Flood diameter: ceil((n-1)/k) = 3 hops.
  EXPECT_EQ(g.diameter(), 3u);
}

TEST(Hypergraph, KcastRingRejectsBadK) {
  EXPECT_THROW(Hypergraph::kcast_ring(5, 0), std::invalid_argument);
  EXPECT_THROW(Hypergraph::kcast_ring(5, 5), std::invalid_argument);
}

TEST(Hypergraph, AddEdgeValidation) {
  Hypergraph g(3);
  EXPECT_THROW(g.add_edge({0, {0}}), std::invalid_argument);  // self loop
  EXPECT_THROW(g.add_edge({0, {7}}), std::invalid_argument);  // range
  EXPECT_THROW(g.add_edge({7, {0}}), std::invalid_argument);
  EXPECT_THROW(g.add_edge({0, {}}), std::invalid_argument);  // empty
  g.add_edge({0, {1, 2}});
  EXPECT_EQ(g.out_edges(0).size(), 1u);
  EXPECT_EQ(g.d_in(1), 1u);
}

TEST(Hypergraph, IndependenceCounterexampleFromAppendixA) {
  // The appendix example: e1 = {p0,{p1,p2}}, e2 = {p0,{p2,p3}},
  // e3 = {p0,{p1,p3}} — one edge is redundant; the union of any two
  // equals the union of all three.
  Hypergraph g(4);
  g.add_edge({0, {1, 2}});
  g.add_edge({0, {2, 3}});
  g.add_edge({0, {1, 3}});
  EXPECT_FALSE(g.edges_independent());
}

TEST(Hypergraph, IndependentEdgesAccepted) {
  Hypergraph g(5);
  g.add_edge({0, {1, 2}});
  g.add_edge({0, {3, 4}});
  g.add_edge({1, {0}});
  EXPECT_TRUE(g.edges_independent());
  EXPECT_TRUE(Hypergraph::kcast_ring(8, 3).edges_independent());
  EXPECT_TRUE(Hypergraph::full_mesh(5).edges_independent());
}

TEST(Hypergraph, FaultBoundLemmaA5) {
  // Ring with k = 3 has min(d_in, d_out) = 3 -> tolerates f < 3.
  const auto g = Hypergraph::kcast_ring(10, 3);
  EXPECT_TRUE(g.satisfies_fault_bound(0));
  EXPECT_TRUE(g.satisfies_fault_bound(2));
  EXPECT_FALSE(g.satisfies_fault_bound(3));
  EXPECT_FALSE(g.satisfies_fault_bound(9));
}

TEST(Hypergraph, KcastBoundLemmaA6) {
  // f < k * min(D_in, D_out): ring has D_out = 1, so f < k.
  const auto g = Hypergraph::kcast_ring(10, 3);
  EXPECT_TRUE(g.satisfies_kcast_bound(2, 3));
  EXPECT_FALSE(g.satisfies_kcast_bound(3, 3));
}

TEST(Hypergraph, StrongConnectivity) {
  const auto ring = Hypergraph::kcast_ring(6, 2);
  EXPECT_TRUE(ring.strongly_connected());
  // Removing 2 adjacent nodes from a k=2 ring disconnects the flow
  // around them only if they block every path; with k = 2 and n = 6,
  // removing nodes 1 and 2 still leaves 0 -> ... -> 5 paths? Node 0
  // reaches {1,2} only, both removed -> 0 is cut off.
  EXPECT_FALSE(ring.strongly_connected_without({1, 2}));
  EXPECT_TRUE(ring.strongly_connected_without({1}));
}

TEST(Hypergraph, PartitionResistance) {
  sim::Rng rng(5);
  // k = 3 ring survives any single fault...
  EXPECT_TRUE(Hypergraph::kcast_ring(8, 3).partition_resistant(1, rng));
  // ...and any two faults (no two removals can cover all 3 out-neighbors
  // of any node)...
  EXPECT_TRUE(Hypergraph::kcast_ring(8, 3).partition_resistant(2, rng));
  // ...but three adjacent faults cut a node off.
  EXPECT_FALSE(Hypergraph::kcast_ring(8, 3).partition_resistant(3, rng));
  // Full mesh of 6 survives up to 4 removals trivially.
  EXPECT_TRUE(Hypergraph::full_mesh(6).partition_resistant(4, rng));
}

TEST(Hypergraph, DisconnectedGraphDetected) {
  Hypergraph g(4);
  g.add_edge({0, {1}});
  g.add_edge({1, {0}});
  g.add_edge({2, {3}});
  g.add_edge({3, {2}});
  EXPECT_FALSE(g.strongly_connected());
}

TEST(Hypergraph, DiameterGrowsAsKShrinks) {
  EXPECT_GT(Hypergraph::kcast_ring(12, 1).diameter(),
            Hypergraph::kcast_ring(12, 4).diameter());
  EXPECT_EQ(Hypergraph::kcast_ring(12, 1).diameter(), 11u);
}

// Property sweep over ring parameters: structural invariants hold for
// every (n, k).
class RingSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(RingSweep, StructuralInvariants) {
  const auto [n, k] = GetParam();
  const auto g = Hypergraph::kcast_ring(n, k);
  EXPECT_EQ(g.edges().size(), n);
  EXPECT_EQ(g.cap_d_in(), k);
  EXPECT_EQ(g.cap_d_out(), 1u);
  EXPECT_TRUE(g.strongly_connected());
  EXPECT_TRUE(g.satisfies_fault_bound(k - 1));
  EXPECT_FALSE(g.satisfies_fault_bound(k));
  // Diameter = ceil((n-1)/k).
  EXPECT_EQ(g.diameter(), (n - 2 + k) / k);
}

INSTANTIATE_TEST_SUITE_P(
    NKCombinations, RingSweep,
    ::testing::Combine(::testing::Values<std::size_t>(4, 7, 10, 15),
                       ::testing::Values<std::size_t>(1, 2, 3)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace eesmr::net
