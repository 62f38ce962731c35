// Bounded-synchronous message fabric over a hypergraph.
//
// One transmit() by a node sends a frame on every outgoing hyper-edge.
// The adversary controls per-delivery delays through a DelayPolicy, but
// can never exceed the per-hop bound (the Δ assumption). Every
// transmission charges the sender's and receivers' energy meters using
// the calibrated medium cost models.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"
#include "src/energy/cost_model.hpp"
#include "src/energy/meter.hpp"
#include "src/net/hypergraph.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/scheduler.hpp"

namespace eesmr::net {

/// Receiver interface implemented by the flood router (or any node shim).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// `link_sender` is the physical transmitter of the frame (not
  /// necessarily the originator of the protocol message). The frame is
  /// a refcounted immutable buffer: a sink that re-forwards keeps the
  /// refcount instead of copying.
  virtual void on_packet(NodeId link_sender, const SharedBytes& frame) = 0;
};

/// Chooses the delivery delay of each (edge, receiver, frame). A correct
/// implementation must return a value in [1, hop_bound]; the network
/// clamps to this range to preserve bounded synchrony.
class DelayPolicy {
 public:
  virtual ~DelayPolicy() = default;
  virtual sim::Duration delay(NodeId from, NodeId to, std::size_t bytes) = 0;
};

/// Uniform random delay in [lo, hi] — the "honest" network.
class UniformDelay final : public DelayPolicy {
 public:
  UniformDelay(sim::Rng rng, sim::Duration lo, sim::Duration hi)
      : rng_(rng), lo_(lo), hi_(hi) {}
  sim::Duration delay(NodeId, NodeId, std::size_t) override {
    return rng_.range(lo_, hi_);
  }

 private:
  sim::Rng rng_;
  sim::Duration lo_, hi_;
};

/// Every delivery takes exactly the hop bound — the worst adversary
/// permitted by bounded synchrony.
class MaxDelay final : public DelayPolicy {
 public:
  explicit MaxDelay(sim::Duration hop_bound) : bound_(hop_bound) {}
  sim::Duration delay(NodeId, NodeId, std::size_t) override { return bound_; }

 private:
  sim::Duration bound_;
};

/// Per-delivery fault verdict chosen by an installed FaultInjector. A
/// dropped frame is modeled as corrupted after reception (the receiver's
/// radio listened, so its reception energy is still charged); duplicates
/// are stack-level re-deliveries and charge no extra energy. extra_delay
/// is deliberately NOT clamped to the hop bound — a fault schedule may
/// exceed it to violate bounded synchrony and stress liveness.
struct FaultVerdict {
  bool drop = false;
  std::uint32_t duplicates = 0;   ///< extra copies delivered
  sim::Duration extra_delay = 0;  ///< added on top of the drawn hop delay
};

/// Scripted network-level fault injection (src/adversary): consulted once
/// per (transmission, receiver) before the delivery is scheduled.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultVerdict on_delivery(NodeId from, NodeId to,
                                   energy::Stream stream,
                                   std::size_t bytes) = 0;
};

struct TransportConfig {
  energy::Medium medium = energy::Medium::kBle;
  /// Max per-hop delivery delay (the edge-level Δ component).
  sim::Duration hop_bound = sim::milliseconds(10);
  /// Reliability target for BLE advertisement k-casts (sets redundancy).
  double kcast_reliability = 0.9999;
};

class Network {
 public:
  /// `meters` may be nullptr (no energy accounting); otherwise must hold
  /// one meter per node and outlive the network. `relay` marks which
  /// nodes forward routed frames (empty = all). A non-relay node is a
  /// leaf (e.g. a client): routed paths never traverse it as an
  /// intermediate hop, so attaching well-connected leaves cannot
  /// shortcut the core topology.
  Network(sim::Scheduler& sched, Hypergraph graph, TransportConfig config,
          std::vector<energy::Meter>* meters,
          std::vector<bool> relay = {});

  void attach(NodeId node, PacketSink* sink);
  void set_delay_policy(std::unique_ptr<DelayPolicy> policy);
  /// Install (or clear, with nullptr) a fault injector. Not owned; must
  /// outlive the network while installed.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Take a node off the air (crashed / not yet spawned) or bring it
  /// back. While offline the node neither transmits, receives, relays,
  /// nor pays radio energy; frames already in flight to it are dropped
  /// at delivery time. Routing distances are unchanged — an offline
  /// relay simply loses the frames it would have forwarded, exactly like
  /// a crashed node under the flood assumption.
  void set_node_online(NodeId node, bool online);

  /// Transmit `frame` on every outgoing hyper-edge of `from` that has
  /// at least one relay receiver (broadcast = flood fabric; edges to
  /// non-relay leaves only carry directed frames). `stream` attributes
  /// the radio energy of this transmission to a channel class.
  ///
  /// The SharedBytes overloads are the zero-copy path: every scheduled
  /// delivery captures a refcount on the one frame buffer instead of
  /// copying it. The BytesView overloads materialize the frame once and
  /// forward to them.
  void transmit(NodeId from, const SharedBytes& frame,
                energy::Stream stream = energy::Stream::kOther);
  void transmit(NodeId from, BytesView frame,
                energy::Stream stream = energy::Stream::kOther) {
    transmit(from, share_bytes(frame), stream);
  }
  /// Transmit only on the given subset of `from`'s out-edges (Byzantine
  /// selective sending). Indices are positions into out_edges(from).
  void transmit_on(NodeId from, const std::vector<std::size_t>& edge_sel,
                   const SharedBytes& frame,
                   energy::Stream stream = energy::Stream::kOther);
  void transmit_on(NodeId from, const std::vector<std::size_t>& edge_sel,
                   BytesView frame,
                   energy::Stream stream = energy::Stream::kOther) {
    transmit_on(from, edge_sel, share_bytes(frame), stream);
  }
  /// Transmit only on out-edges that make progress towards `dest`
  /// (at least one receiver strictly closer than `from`). The unicast-
  /// routing hop primitive.
  void transmit_towards(NodeId from, NodeId dest, const SharedBytes& frame,
                        energy::Stream stream = energy::Stream::kOther);
  void transmit_towards(NodeId from, NodeId dest, BytesView frame,
                        energy::Stream stream = energy::Stream::kOther) {
    transmit_towards(from, dest, share_bytes(frame), stream);
  }

  [[nodiscard]] const Hypergraph& graph() const { return graph_; }
  [[nodiscard]] const TransportConfig& config() const { return config_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

  /// Shortest-path hop distance (SIZE_MAX when unreachable). Used by the
  /// flood router to forward addressed frames only along shrinking-
  /// distance paths (point-to-point routing over the hypergraph).
  [[nodiscard]] std::size_t hops(NodeId from, NodeId to) const;

  /// energy::kcast_redundancy_for(bytes, k, config().kcast_reliability),
  /// memoized per (advertisement packets of `bytes`, k): the redundancy
  /// depends on `bytes` only through its packet count, and the
  /// reliability target is fixed per network.
  [[nodiscard]] std::size_t kcast_redundancy(std::size_t bytes, std::size_t k);

  // Run statistics (for Table-3 communication-complexity measurements).
  [[nodiscard]] std::uint64_t transmissions() const { return transmissions_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t bytes_transmitted() const { return bytes_tx_; }
  /// Bytes the zero-copy path did NOT copy: one full frame per scheduled
  /// delivery (the old per-delivery to_bytes) plus whatever sinks report
  /// via note_copy_saved (the flood router's per-packet payload copy).
  /// Deterministic — a pure function of the delivery schedule.
  [[nodiscard]] std::uint64_t bytes_copy_saved() const {
    return bytes_copy_saved_;
  }
  void note_copy_saved(std::uint64_t bytes) { bytes_copy_saved_ += bytes; }

 private:
  void transmit_edge(const HyperEdge& edge, const SharedBytes& frame,
                     energy::Stream stream);
  void charge_energy(const HyperEdge& edge, std::size_t bytes,
                     energy::Stream stream);
  void recompute_hops();
  void deliver(std::uint32_t slot);

  /// A scheduled delivery. The scheduler event captures only (this,
  /// slot), which std::function stores inline, so delivering a frame
  /// allocates nothing once the table has grown to the in-flight peak.
  struct InFlight {
    PacketSink* sink = nullptr;
    NodeId to = 0;
    NodeId from = 0;
    SharedBytes frame;
    std::uint32_t next_free = 0;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  sim::Scheduler& sched_;
  Hypergraph graph_;
  TransportConfig config_;
  std::vector<energy::Meter>* meters_;
  std::vector<PacketSink*> sinks_;
  std::unique_ptr<DelayPolicy> policy_;
  FaultInjector* injector_ = nullptr;
  std::vector<bool> relay_;
  std::vector<bool> online_;
  std::vector<std::vector<std::size_t>> hop_matrix_;
  /// kcast_redundancy memo: (packets << 32 | k) -> redundancy.
  std::unordered_map<std::uint64_t, std::size_t> kcast_redundancy_;
  std::vector<InFlight> in_flight_;
  std::uint32_t free_in_flight_ = kNoSlot;

  std::uint64_t transmissions_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t bytes_copy_saved_ = 0;
};

}  // namespace eesmr::net
