#include "src/net/hypergraph.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>

namespace eesmr::net {

namespace {
constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();

/// Number of f-subsets of n elements, saturating.
std::size_t binom_saturating(std::size_t n, std::size_t f,
                             std::size_t limit) {
  if (f > n) return 0;
  std::size_t result = 1;
  for (std::size_t i = 0; i < f; ++i) {
    result = result * (n - i) / (i + 1);
    if (result > limit) return limit + 1;
  }
  return result;
}
}  // namespace

Hypergraph Hypergraph::full_mesh(std::size_t n) {
  Hypergraph g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i != j) g.add_edge({i, {j}});
    }
  }
  return g;
}

Hypergraph Hypergraph::kcast_ring(std::size_t n, std::size_t k) {
  if (k == 0 || k >= n) {
    throw std::invalid_argument("kcast_ring: need 1 <= k < n");
  }
  Hypergraph g(n);
  for (NodeId i = 0; i < n; ++i) {
    HyperEdge e;
    e.sender = i;
    for (std::size_t j = 1; j <= k; ++j) {
      e.receivers.push_back(static_cast<NodeId>((i + j) % n));
    }
    g.add_edge(std::move(e));
  }
  return g;
}

Hypergraph Hypergraph::expanded(const Hypergraph& base, std::size_t n) {
  if (n < base.n()) {
    throw std::invalid_argument("expanded: n smaller than base graph");
  }
  Hypergraph g(n);
  for (const HyperEdge& e : base.edges()) g.add_edge(e);
  return g;
}

void Hypergraph::add_edge(HyperEdge edge) {
  if (edge.sender >= n_) {
    throw std::invalid_argument("add_edge: sender out of range");
  }
  if (edge.receivers.empty()) {
    throw std::invalid_argument("add_edge: empty receiver set");
  }
  for (NodeId r : edge.receivers) {
    if (r >= n_) throw std::invalid_argument("add_edge: receiver out of range");
    if (r == edge.sender) {
      throw std::invalid_argument("add_edge: self-loop not allowed (A.1)");
    }
  }
  const std::size_t idx = edges_.size();
  out_edges_[edge.sender].push_back(idx);
  for (NodeId r : edge.receivers) in_edges_[r].push_back(idx);
  edges_.push_back(std::move(edge));
}

const std::vector<std::size_t>& Hypergraph::out_edges(NodeId node) const {
  return out_edges_.at(node);
}

std::size_t Hypergraph::d_out(NodeId node) const {
  std::set<NodeId> reach;
  for (std::size_t idx : out_edges_.at(node)) {
    reach.insert(edges_[idx].receivers.begin(), edges_[idx].receivers.end());
  }
  return reach.size();
}

std::size_t Hypergraph::d_in(NodeId node) const {
  std::set<NodeId> sources;
  for (std::size_t idx : in_edges_.at(node)) {
    sources.insert(edges_[idx].sender);
  }
  return sources.size();
}

std::size_t Hypergraph::min_d_in() const {
  std::size_t best = kUnreached;
  for (NodeId i = 0; i < n_; ++i) best = std::min(best, d_in(i));
  return best;
}

std::size_t Hypergraph::cap_d_out() const {
  std::size_t best = kUnreached;
  for (NodeId i = 0; i < n_; ++i) {
    best = std::min(best, out_edges_[i].size());
  }
  return best;
}

std::size_t Hypergraph::cap_d_in() const {
  std::size_t best = kUnreached;
  for (NodeId i = 0; i < n_; ++i) {
    best = std::min(best, in_edges_[i].size());
  }
  return best;
}

std::size_t Hypergraph::min_edge_degree() const {
  std::size_t best = kUnreached;
  for (const HyperEdge& e : edges_) {
    best = std::min(best, e.receivers.size());
  }
  return best == kUnreached ? 0 : best;
}

bool Hypergraph::edges_independent() const {
  for (NodeId node = 0; node < n_; ++node) {
    const auto& out = out_edges_[node];
    if (out.size() > 20) {
      throw std::invalid_argument(
          "edges_independent: node has too many out-edges for the exact "
          "check");
    }
    // Distinct subsets must yield distinct receiver unions. Equivalent to
    // |{union(subset)}| == 2^|out|.
    std::set<std::set<NodeId>> unions;
    const std::size_t subsets = std::size_t{1} << out.size();
    for (std::size_t mask = 0; mask < subsets; ++mask) {
      std::set<NodeId> u;
      for (std::size_t b = 0; b < out.size(); ++b) {
        if (mask & (std::size_t{1} << b)) {
          const auto& r = edges_[out[b]].receivers;
          u.insert(r.begin(), r.end());
        }
      }
      if (!unions.insert(std::move(u)).second) return false;
    }
  }
  return true;
}

bool Hypergraph::satisfies_fault_bound(std::size_t f) const {
  for (NodeId i = 0; i < n_; ++i) {
    if (f >= d_out(i) || f >= d_in(i)) return false;
  }
  return true;
}

bool Hypergraph::satisfies_kcast_bound(std::size_t f, std::size_t k) const {
  return f < k * std::min(cap_d_in(), cap_d_out());
}

std::vector<std::size_t> Hypergraph::bfs_distances(
    NodeId origin, const std::vector<bool>& removed) const {
  std::vector<std::size_t> dist(n_, kUnreached);
  if (removed[origin]) return dist;
  dist[origin] = 0;
  std::queue<NodeId> frontier;
  frontier.push(origin);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (std::size_t idx : out_edges_[u]) {
      for (NodeId v : edges_[idx].receivers) {
        if (removed[v] || dist[v] != kUnreached) continue;
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

bool Hypergraph::strongly_connected_without(
    const std::vector<NodeId>& removed_list) const {
  std::vector<bool> removed(n_, false);
  for (NodeId r : removed_list) removed.at(r) = true;
  NodeId origin = kNoNode;
  std::size_t alive = 0;
  for (NodeId i = 0; i < n_; ++i) {
    if (!removed[i]) {
      if (origin == kNoNode) origin = i;
      ++alive;
    }
  }
  if (alive <= 1) return true;
  // Strong connectivity over the survivors: every survivor must reach
  // every other. BFS from each survivor (n is small in every use).
  for (NodeId s = 0; s < n_; ++s) {
    if (removed[s]) continue;
    const auto dist = bfs_distances(s, removed);
    for (NodeId t = 0; t < n_; ++t) {
      if (!removed[t] && dist[t] == kUnreached) return false;
    }
  }
  return true;
}

bool Hypergraph::partition_resistant(std::size_t f, sim::Rng& rng,
                                     std::size_t exact_limit,
                                     std::size_t samples) const {
  if (f == 0) return strongly_connected();
  if (f >= n_) return false;
  const std::size_t count = binom_saturating(n_, f, exact_limit);
  if (count <= exact_limit) {
    // Exhaustive: iterate all f-subsets with the classic odometer.
    std::vector<NodeId> subset(f);
    for (std::size_t i = 0; i < f; ++i) subset[i] = static_cast<NodeId>(i);
    for (;;) {
      if (!strongly_connected_without(subset)) return false;
      // Advance.
      std::size_t i = f;
      while (i-- > 0) {
        if (subset[i] + (f - i) < n_) {
          ++subset[i];
          for (std::size_t j = i + 1; j < f; ++j) {
            subset[j] = subset[j - 1] + 1;
          }
          break;
        }
        if (i == 0) return true;  // odometer exhausted
      }
      if (subset[0] + f > n_) return true;
    }
  }
  // Randomized fallback: any counterexample proves non-resistance.
  for (std::size_t s = 0; s < samples; ++s) {
    std::set<NodeId> pick;
    while (pick.size() < f) {
      pick.insert(static_cast<NodeId>(rng.below(n_)));
    }
    if (!strongly_connected_without(
            std::vector<NodeId>(pick.begin(), pick.end()))) {
      return false;
    }
  }
  return true;
}

std::size_t Hypergraph::diameter() const {
  const std::vector<bool> removed(n_, false);
  std::size_t best = 0;
  for (NodeId s = 0; s < n_; ++s) {
    const auto dist = bfs_distances(s, removed);
    for (NodeId t = 0; t < n_; ++t) {
      if (s != t && dist[t] != kUnreached) best = std::max(best, dist[t]);
    }
  }
  return best;
}

}  // namespace eesmr::net
