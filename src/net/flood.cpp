#include "src/net/flood.hpp"

#include <algorithm>

#include "src/common/serde.hpp"

namespace eesmr::net {

bool FloodRouter::SeenWindow::insert(std::uint64_t seq) {
  if (seq <= watermark) return false;
  // tail[head] > watermark + 1 always holds after folding, so the next
  // in-order seq is never a duplicate and needs no tail entry.
  if (seq == watermark + 1) {
    ++watermark;
  } else if (head == tail.size() || seq > tail.back()) {
    tail.push_back(seq);
  } else {
    const auto it = std::lower_bound(
        tail.begin() + static_cast<std::ptrdiff_t>(head), tail.end(), seq);
    if (*it == seq) return false;
    tail.insert(it, seq);
  }
  // Fold the now-contiguous prefix into the watermark.
  while (head < tail.size() && tail[head] == watermark + 1) {
    ++head;
    ++watermark;
  }
  // Persistent gaps (seqs the origin spent on frames never routed through
  // this node) would pin the tail forever; force the window forward.
  while (tail_size() > kMaxTail) {
    watermark = tail[head++];
    while (head < tail.size() && tail[head] == watermark + 1) {
      ++head;
      ++watermark;
    }
  }
  if (head == tail.size()) {
    tail.clear();
    head = 0;
  } else if (head >= kMaxTail) {
    tail.erase(tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return true;
}

FloodRouter::FloodRouter(Network& net, NodeId self, FloodClient* client)
    : net_(net), self_(self), client_(client), seen_(net.graph().n()) {
  net_.attach(self, this);
}

std::size_t FloodRouter::dedup_tail_entries() const {
  std::size_t total = 0;
  for (const SeenWindow& window : seen_) total += window.tail_size();
  return total;
}

SharedBytes FloodRouter::make_frame(NodeId dest, std::uint8_t flags,
                                    energy::Stream stream,
                                    BytesView payload) {
  frame_writer_.clear();
  Writer& w = frame_writer_;
  w.u32(self_);
  w.u64(next_seq_++);
  w.u32(dest);
  w.u8(flags);
  w.u8(static_cast<std::uint8_t>(stream));
  w.raw(payload);
  return share_bytes(BytesView(w.buffer()));
}

void FloodRouter::broadcast(BytesView payload, energy::Stream stream) {
  const SharedBytes frame = make_frame(kNoNode, 0, stream, payload);
  // Mark our own frame as seen so echoes are not re-forwarded.
  seen_[self_].insert(next_seq_ - 1);
  net_.transmit(self_, frame, stream);
}

void FloodRouter::broadcast_local(BytesView payload, energy::Stream stream) {
  const SharedBytes frame = make_frame(kNoNode, kNoForward, stream, payload);
  seen_[self_].insert(next_seq_ - 1);
  net_.transmit(self_, frame, stream);
}

void FloodRouter::send_to(NodeId dest, BytesView payload,
                          energy::Stream stream) {
  if (dest == self_) {
    // Local delivery shortcut (no radio energy).
    if (client_ != nullptr) client_->on_deliver(self_, payload);
    return;
  }
  const SharedBytes frame = make_frame(dest, 0, stream, payload);
  seen_[self_].insert(next_seq_ - 1);
  net_.transmit_towards(self_, dest, frame, stream);
}

void FloodRouter::broadcast_on_edges(const std::vector<std::size_t>& edge_sel,
                                     BytesView payload,
                                     energy::Stream stream) {
  const SharedBytes frame = make_frame(kNoNode, 0, stream, payload);
  seen_[self_].insert(next_seq_ - 1);
  net_.transmit_on(self_, edge_sel, frame, stream);
}

void FloodRouter::on_packet(NodeId link_sender, const SharedBytes& frame) {
  NodeId origin;
  std::uint64_t seq;
  NodeId dest;
  std::uint8_t flags;
  std::uint8_t stream_raw;
  BytesView payload;
  try {
    Reader r(view_of(frame));
    origin = r.u32();
    seq = r.u64();
    dest = r.u32();
    flags = r.u8();
    stream_raw = r.u8();
    // Zero-copy: the payload stays a view into the shared frame, which
    // is alive for the duration of this call. This replaces an owned
    // copy made for every received packet, duplicates included.
    payload = r.raw_view(r.remaining());
    net_.note_copy_saved(payload.size());
  } catch (const SerdeError&) {
    return;  // malformed frame: drop
  }
  // A frame naming a node outside the graph is malformed: dropping it
  // here keeps forged origins out of the dedup state and unknown dests
  // away from the routing table.
  const std::size_t n = net_.graph().n();
  if (origin >= n || (dest != kNoNode && dest >= n)) return;
  if (origin == self_) return;  // our own flood echoing back
  if (!seen_[origin].insert(seq)) return;  // duplicate
  const auto stream =
      stream_raw < energy::kNumStreams ? static_cast<energy::Stream>(stream_raw)
                                       : energy::Stream::kOther;

  // Forward first (Line 213's "broadcast once"), then deliver. The
  // forwarded copy keeps the originator's stream tag, so relay energy is
  // attributed to the stream that caused it.
  const bool forward = forwarding_ && (flags & kNoForward) == 0;
  if (forward && dest == kNoNode) {
    net_.transmit(self_, frame, stream);
  } else if (forward && dest != self_) {
    // Addressed frame: route along shrinking shortest-path distance.
    constexpr std::size_t kInf = static_cast<std::size_t>(-1);
    const std::size_t mine = net_.hops(self_, dest);
    const std::size_t theirs = net_.hops(link_sender, dest);
    if (mine != kInf && mine < theirs) {
      net_.transmit_towards(self_, dest, frame, stream);
    }
  }
  if (client_ != nullptr && (dest == kNoNode || dest == self_)) {
    client_->on_deliver(origin, payload);
  }
}

}  // namespace eesmr::net
