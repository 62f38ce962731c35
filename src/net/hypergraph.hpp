// Hypergraph network model from Appendix A.
//
// A hyper-edge e = (S(e), R(e)) models one multicast: sender S(e) reaches
// every receiver in R(e) with a single transmission. Definitions A.1–A.4
// (k-casts, d_in/d_out, D_in/D_out, independence of edges) and the
// fault-tolerance necessary conditions of Lemmas A.5/A.6 are implemented
// here, together with the partition-resistance check the paper assumes.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/ids.hpp"
#include "src/sim/rng.hpp"

namespace eesmr::net {

/// One multicast channel: S(e) = sender, R(e) = receivers (no self-loop).
struct HyperEdge {
  NodeId sender = kNoNode;
  std::vector<NodeId> receivers;
};

class Hypergraph {
 public:
  explicit Hypergraph(std::size_t n) : n_(n), out_edges_(n), in_edges_(n) {}

  /// Fully-connected unicast topology: an edge i -> {j} for every i != j.
  static Hypergraph full_mesh(std::size_t n);

  /// The §5.6 evaluation topology: every node p_i transmits one k-cast to
  /// p_{i+1 mod n} ... p_{i+k mod n}; hence D_out = 1 and D_in = k.
  static Hypergraph kcast_ring(std::size_t n, std::size_t k);

  /// Copy of `base` with capacity for `n` >= base.n() nodes; the extra
  /// nodes start with no edges. Used to append client nodes to a replica
  /// topology before wiring their access edges.
  static Hypergraph expanded(const Hypergraph& base, std::size_t n);

  /// Throws std::invalid_argument on self-loops or out-of-range nodes.
  void add_edge(HyperEdge edge);

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] const std::vector<HyperEdge>& edges() const { return edges_; }
  /// Indices into edges() where `node` is the sender.
  [[nodiscard]] const std::vector<std::size_t>& out_edges(NodeId node) const;

  // -- Definitions A.3 / A.4 -------------------------------------------------
  /// Number of distinct nodes reachable by node's outgoing edges.
  [[nodiscard]] std::size_t d_out(NodeId node) const;
  /// Number of distinct nodes with an edge delivering to `node`.
  [[nodiscard]] std::size_t d_in(NodeId node) const;
  [[nodiscard]] std::size_t min_d_in() const;

  /// D_out / D_in: minimum number of outgoing / incoming *edges* over all
  /// nodes (the k-cast counts used in Lemma A.6).
  [[nodiscard]] std::size_t cap_d_out() const;
  [[nodiscard]] std::size_t cap_d_in() const;

  /// Minimum receiver-set size over all edges ("the hypergraph has
  /// k-casts" for k = min_edge_degree()).
  [[nodiscard]] std::size_t min_edge_degree() const;

  // -- Definition A.2 ----------------------------------------------------------
  /// Exact check that no node has two distinct subsets of its out-edges
  /// covering the same receiver set. Exponential in the per-node edge
  /// count; throws std::invalid_argument when a node has > 20 out-edges.
  [[nodiscard]] bool edges_independent() const;

  // -- Lemma A.5 / A.6 ---------------------------------------------------------
  /// Necessary condition f < min over nodes of (d_out, d_in).
  [[nodiscard]] bool satisfies_fault_bound(std::size_t f) const;
  /// Necessary condition f < k * min(D_in, D_out) for k-cast graphs.
  [[nodiscard]] bool satisfies_kcast_bound(std::size_t f,
                                           std::size_t k) const;

  // -- Connectivity -------------------------------------------------------------
  /// Can every remaining node reach every other after removing `removed`?
  [[nodiscard]] bool strongly_connected_without(
      const std::vector<NodeId>& removed) const;
  [[nodiscard]] bool strongly_connected() const {
    return strongly_connected_without({});
  }

  /// Partition resistance: strongly connected after removing *any* f
  /// nodes. Exact when C(n, f) <= exact_limit; otherwise falls back to
  /// `samples` random subsets (returns false on any counterexample).
  [[nodiscard]] bool partition_resistant(std::size_t f, sim::Rng& rng,
                                         std::size_t exact_limit = 200000,
                                         std::size_t samples = 2000) const;

  /// Longest shortest-path hop count between any connected ordered pair
  /// (edges count one hop from sender to each receiver). Used to derive
  /// the end-to-end Delta for flooding.
  [[nodiscard]] std::size_t diameter() const;

 private:
  [[nodiscard]] std::vector<std::size_t> bfs_distances(
      NodeId origin, const std::vector<bool>& removed) const;

  std::size_t n_;
  std::vector<HyperEdge> edges_;
  std::vector<std::vector<std::size_t>> out_edges_;
  std::vector<std::vector<std::size_t>> in_edges_;
};

}  // namespace eesmr::net
