#include "src/net/network.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace eesmr::net {

Network::Network(sim::Scheduler& sched, Hypergraph graph,
                 TransportConfig config, std::vector<energy::Meter>* meters,
                 std::vector<bool> relay)
    : sched_(sched),
      graph_(std::move(graph)),
      config_(config),
      meters_(meters),
      sinks_(graph_.n(), nullptr) {
  if (meters_ != nullptr && meters_->size() != graph_.n()) {
    throw std::invalid_argument("Network: meters size mismatch");
  }
  if (!relay.empty() && relay.size() != graph_.n()) {
    throw std::invalid_argument("Network: relay size mismatch");
  }
  policy_ = std::make_unique<UniformDelay>(
      sim::Rng(0xbeef), std::max<sim::Duration>(1, config_.hop_bound / 5),
      config_.hop_bound);
  relay_ = relay.empty() ? std::vector<bool>(graph_.n(), true)
                         : std::move(relay);
  online_.assign(graph_.n(), true);
  recompute_hops();
}

void Network::set_node_online(NodeId node, bool online) {
  online_.at(node) = online;
}

void Network::recompute_hops() {
  // All-pairs BFS hop distances for directed-frame routing. Non-relay
  // nodes may start or end a path but never extend one.
  const std::size_t n = graph_.n();
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
  hop_matrix_.assign(n, std::vector<std::size_t>(n, kInf));
  for (NodeId s = 0; s < n; ++s) {
    hop_matrix_[s][s] = 0;
    std::queue<NodeId> frontier;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      if (u != s && !relay_[u]) continue;
      for (std::size_t idx : graph_.out_edges(u)) {
        for (NodeId v : graph_.edges()[idx].receivers) {
          if (hop_matrix_[s][v] != kInf) continue;
          hop_matrix_[s][v] = hop_matrix_[s][u] + 1;
          frontier.push(v);
        }
      }
    }
  }
}

std::size_t Network::hops(NodeId from, NodeId to) const {
  return hop_matrix_.at(from).at(to);
}

std::size_t Network::kcast_redundancy(std::size_t bytes, std::size_t k) {
  const std::uint64_t key =
      (std::uint64_t{energy::ble_adv_packets(bytes)} << 32) | k;
  if (const auto it = kcast_redundancy_.find(key);
      it != kcast_redundancy_.end()) {
    return it->second;
  }
  const std::size_t r =
      energy::kcast_redundancy_for(bytes, k, config_.kcast_reliability);
  kcast_redundancy_.emplace(key, r);
  return r;
}

void Network::attach(NodeId node, PacketSink* sink) {
  sinks_.at(node) = sink;
}

void Network::set_delay_policy(std::unique_ptr<DelayPolicy> policy) {
  policy_ = std::move(policy);
}

void Network::charge_energy(const HyperEdge& edge, std::size_t bytes,
                            energy::Stream stream) {
  if (meters_ == nullptr) return;
  // Offline receivers are not listening: no reception energy.
  const std::size_t k = edge.receivers.size();
  double send_mj, recv_mj;
  if (config_.medium == energy::Medium::kBle) {
    if (k > 1) {
      // Advertisement k-cast with redundancy for the reliability target.
      const std::size_t r = kcast_redundancy(bytes, k);
      send_mj = energy::kcast_send_energy_mj(bytes, r);
      recv_mj = energy::kcast_recv_energy_mj(bytes, r);
    } else {
      // Reliable connection-oriented GATT unicast.
      send_mj = energy::gatt_send_energy_mj(bytes);
      recv_mj = energy::gatt_recv_energy_mj(bytes);
    }
  } else {
    send_mj = (k > 1) ? energy::multicast_energy_mj(config_.medium, bytes)
                      : energy::send_energy_mj(config_.medium, bytes);
    recv_mj = energy::recv_energy_mj(config_.medium, bytes);
  }
  (*meters_)[edge.sender].charge_send(send_mj, bytes, stream);
  for (NodeId r : edge.receivers) {
    if (online_[r]) (*meters_)[r].charge_recv(recv_mj, bytes, stream);
  }
}

void Network::transmit_edge(const HyperEdge& edge, const SharedBytes& frame,
                            energy::Stream stream) {
  if (!online_[edge.sender]) return;  // a crashed radio sends nothing
  const std::size_t frame_size = frame ? frame->size() : 0;
  ++transmissions_;
  bytes_tx_ += frame_size;
  charge_energy(edge, frame_size, stream);
  for (NodeId to : edge.receivers) {
    PacketSink* sink = sinks_[to];
    if (sink == nullptr || !online_[to]) continue;
    FaultVerdict fv;
    if (injector_ != nullptr) {
      fv = injector_->on_delivery(edge.sender, to, stream, frame_size);
    }
    if (fv.drop) continue;  // corrupted past recovery; recv energy stays
    for (std::uint32_t copy = 0; copy <= fv.duplicates; ++copy) {
      // Each copy draws its own hop delay, so duplicates interleave with
      // (and reorder against) the surrounding traffic. extra_delay is
      // added unclamped: the injector may exceed the hop bound.
      sim::Duration d = policy_->delay(edge.sender, to, frame_size);
      d = std::clamp<sim::Duration>(d, 1, config_.hop_bound) + fv.extra_delay;
      ++deliveries_;
      // The delivery holds a refcount on the immutable frame instead of
      // the former per-delivery to_bytes copy.
      bytes_copy_saved_ += frame_size;
      std::uint32_t slot = free_in_flight_;
      if (slot != kNoSlot) {
        free_in_flight_ = in_flight_[slot].next_free;
      } else {
        slot = static_cast<std::uint32_t>(in_flight_.size());
        in_flight_.emplace_back();
      }
      InFlight& f = in_flight_[slot];
      f.sink = sink;
      f.to = to;
      f.from = edge.sender;
      f.frame = frame;
      sched_.after(d, "net_deliver", [this, slot] { deliver(slot); });
    }
  }
}

void Network::deliver(std::uint32_t slot) {
  // Free the slot before the sink runs: it may transmit, which reuses
  // slots and can grow in_flight_.
  InFlight& f = in_flight_[slot];
  PacketSink* sink = f.sink;
  const NodeId to = f.to;
  const NodeId from = f.from;
  const SharedBytes frame = std::move(f.frame);
  f.next_free = free_in_flight_;
  free_in_flight_ = slot;
  // Re-check at delivery time: the receiver may have gone offline while
  // the frame was in flight.
  if (online_[to]) sink->on_packet(from, frame);
}

void Network::transmit(NodeId from, const SharedBytes& frame,
                       energy::Stream stream) {
  for (std::size_t idx : graph_.out_edges(from)) {
    const HyperEdge& edge = graph_.edges()[idx];
    // Skip edges whose receivers are all non-relay leaves: broadcasts
    // are the protocol's flood fabric, and leaves (clients) neither
    // need nor forward them. Leaf-only edges still carry directed
    // frames via transmit_towards. Without this, every flood would be
    // copied onto each access edge and charged to the sender's meter.
    bool any_relay = false;
    for (NodeId r : edge.receivers) {
      if (relay_[r]) {
        any_relay = true;
        break;
      }
    }
    if (any_relay) transmit_edge(edge, frame, stream);
  }
}

void Network::transmit_on(NodeId from,
                          const std::vector<std::size_t>& edge_sel,
                          const SharedBytes& frame, energy::Stream stream) {
  const auto& out = graph_.out_edges(from);
  for (std::size_t pos : edge_sel) {
    transmit_edge(graph_.edges()[out.at(pos)], frame, stream);
  }
}

void Network::transmit_towards(NodeId from, NodeId dest,
                               const SharedBytes& frame,
                               energy::Stream stream) {
  const std::size_t mine = hops(from, dest);
  for (std::size_t idx : graph_.out_edges(from)) {
    const HyperEdge& edge = graph_.edges()[idx];
    bool useful = false;
    for (NodeId r : edge.receivers) {
      // Only relay receivers (or the destination itself) count as
      // progress: a non-relay leaf would not forward the frame.
      if ((r == dest || relay_[r]) && hops(r, dest) < mine) {
        useful = true;
        break;
      }
    }
    if (useful) transmit_edge(edge, frame, stream);
  }
}

}  // namespace eesmr::net
