// Flooding router: emulates logical full connectivity over a partially
// connected hypergraph (§A.3 "we emulate logical full-connectivity using
// flooding").
//
// Each broadcast is framed as (origin, seq, dest, flags, stream,
// payload). Every router delivers a frame to its protocol at most once
// (dedup on (origin, seq)) and re-transmits it exactly once on its own
// out-edges — this *is* the paper's Line-213 "broadcast once"
// re-broadcast in partially connected networks. A frame addressed to a
// specific node is still forwarded by everyone (routing) but delivered
// only at the destination. The stream byte attributes every hop's radio
// energy — including forwarded copies — to the channel class that
// originated the frame (see energy::Stream).
//
// Byzantine hooks: `set_forwarding(false)` models nodes that withhold
// forwarding; `broadcast_on_edges` models selective (equivocating)
// transmission to a subset of neighbors.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"
#include "src/common/serde.hpp"
#include "src/net/network.hpp"

namespace eesmr::net {

/// Protocol-facing delivery callback: exactly-once per (origin, seq).
class FloodClient {
 public:
  virtual ~FloodClient() = default;
  virtual void on_deliver(NodeId origin, BytesView payload) = 0;
};

class FloodRouter final : public PacketSink {
 public:
  /// Per-origin duplicate-suppression window: seqs 1..watermark have all
  /// been seen; `tail` holds the sparse seen seqs above the watermark
  /// (out-of-order arrivals, and gaps left by frames this node is not on
  /// the path of — routed unicasts share the origin's seq space).
  /// insert() folds the tail into the watermark as the prefix becomes
  /// contiguous, and force-compacts past persistent gaps once the tail
  /// exceeds kMaxTail, so dedup state is O(window), not O(history).
  /// Force-compaction can mark a never-seen seq as seen; under bounded
  /// synchrony any frame that old has long been delivered or dropped, so
  /// the window only needs to cover the in-flight reordering horizon.
  ///
  /// The tail is a sorted vector whose live entries start at `head`:
  /// in-order arrivals append (or fold straight into the watermark), and
  /// folding only advances `head`, so the common case never allocates.
  /// The consumed prefix is erased once `head` reaches kMaxTail.
  struct SeenWindow {
    std::uint64_t watermark = 0;
    std::vector<std::uint64_t> tail;
    std::size_t head = 0;

    /// Largest tail kept before force-compacting the oldest gap away.
    static constexpr std::size_t kMaxTail = 512;

    /// Record `seq`; returns true when it was not seen before.
    bool insert(std::uint64_t seq);
    [[nodiscard]] std::size_t tail_size() const { return tail.size() - head; }
  };

  FloodRouter(Network& net, NodeId self, FloodClient* client);

  /// Flood `payload` to every node (including delivery at every correct
  /// router, but never back to self).
  void broadcast(BytesView payload,
                 energy::Stream stream = energy::Stream::kOther);

  /// Transmit `payload` once on own out-edges, with NO re-forwarding by
  /// receivers. This is the "partial vote forwarding" primitive: with
  /// k >= f in the ring topology, a node's k in-neighbors plus itself
  /// already form a quorum, so votes need not flood.
  void broadcast_local(BytesView payload,
                       energy::Stream stream = energy::Stream::kOther);

  /// Route `payload` to `dest`: intermediate routers forward only along
  /// shrinking shortest-path distance (point-to-point over the
  /// hypergraph), and only `dest` delivers.
  void send_to(NodeId dest, BytesView payload,
               energy::Stream stream = energy::Stream::kOther);

  /// Byzantine: start the flood only on a subset of own out-edges (the
  /// selective-equivocation primitive). Honest receivers keep forwarding.
  void broadcast_on_edges(const std::vector<std::size_t>& edge_sel,
                          BytesView payload,
                          energy::Stream stream = energy::Stream::kOther);

  /// Byzantine: stop forwarding other nodes' frames.
  void set_forwarding(bool enabled) { forwarding_ = enabled; }

  // PacketSink:
  void on_packet(NodeId link_sender, const SharedBytes& frame) override;

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] Network& network() { return net_; }

  /// Sparse dedup entries currently held across all origins (the bounded
  /// part of the seen-window state; watermarks are O(origins)).
  [[nodiscard]] std::size_t dedup_tail_entries() const;

  /// Per-node wire overhead added by the router framing.
  static constexpr std::size_t kFrameOverhead = 4 + 8 + 4 + 1 + 1;

 private:
  /// Frame flags.
  static constexpr std::uint8_t kNoForward = 0x01;

  SharedBytes make_frame(NodeId dest, std::uint8_t flags,
                         energy::Stream stream, BytesView payload);

  Network& net_;
  NodeId self_;
  FloodClient* client_;
  std::uint64_t next_seq_ = 1;
  bool forwarding_ = true;
  /// Dedup window per origin, indexed by NodeId (sized to the graph).
  std::vector<SeenWindow> seen_;
  /// Reused frame encoder: clear() keeps the allocation, so framing does
  /// one right-sized copy into the shared buffer instead of re-growing a
  /// fresh Writer per frame.
  Writer frame_writer_;
};

}  // namespace eesmr::net
