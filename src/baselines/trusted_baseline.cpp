#include "src/baselines/trusted_baseline.hpp"

#include "src/common/serde.hpp"
#include "src/smr/request.hpp"

namespace eesmr::baselines {

using smr::Block;
using smr::BlockHash;
using smr::Command;
using smr::Msg;
using smr::MsgType;

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

TrustedController::TrustedController(net::Network& net,
                                     smr::ReplicaConfig cfg,
                                     energy::Meter* meter)
    : ReplicaBase(net, std::move(cfg), meter) {
  tip_ = smr::genesis_hash();
  // The control node answers point-to-point; it never floods.
  router().set_forwarding(false);
}

void TrustedController::start() {}

void TrustedController::handle(NodeId /*from*/, const Msg& msg) {
  if (msg.type != MsgType::kSubmit) return;
  try {
    Reader r(msg.data);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      Command cmd{r.bytes()};
      // A flooded client request reaches every CPS node and each one
      // ships it up: order the first copy only. (client, req_id) names
      // the operation; untagged commands pass through.
      const auto req = smr::ClientRequest::decode(cmd.data);
      if (req.has_value() && !seen_requests_[req->client].insert(req->req_id)) {
        ++dedup_skipped_;
        dedup_bytes_ += cmd.data.size();
        continue;
      }
      pending_.push_back(std::move(cmd));
    }
  } catch (const SerdeError&) {
    return;
  }
  if (!round_timer_armed_) {
    // Collect submissions for Δ, then order one block.
    round_timer_armed_ = true;
    sched_.after(cfg_.delta, "round_timer", [this] { order_round(); });
  }
}

void TrustedController::order_round() {
  round_timer_armed_ = false;
  if (pending_.empty()) return;
  Block b;
  b.parent = tip_;
  b.height = ++tip_height_;
  b.view = 1;
  b.round = b.height;
  b.proposer = cfg_.id;
  const std::size_t take = std::min(pending_.size(), cfg_.batch_size);
  b.cmds.assign(pending_.begin(),
                pending_.begin() + static_cast<std::ptrdiff_t>(take));
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(take));
  tip_ = hash_block(b);
  store_.add(b);

  Msg ordered = make_msg(MsgType::kOrdered, b.height, b.encode());
  // Unicast to every CPS node (no cellular multicast exists).
  for (NodeId i = 0; i + 1 < cfg_.n; ++i) send(i, ordered);
  if (!pending_.empty()) {
    round_timer_armed_ = true;
    sched_.after(cfg_.delta, "round_timer", [this] { order_round(); });
  }
}

// ---------------------------------------------------------------------------
// CPS replica
// ---------------------------------------------------------------------------

TrustedBaselineReplica::TrustedBaselineReplica(net::Network& net,
                                               smr::ReplicaConfig cfg,
                                               NodeId controller,
                                               energy::Meter* meter)
    : ReplicaBase(net, std::move(cfg), meter), controller_(controller) {
  router().set_forwarding(false);  // star topology: single hop everywhere
}

void TrustedBaselineReplica::start() { submit_round(); }

void TrustedBaselineReplica::submit_round() {
  const std::vector<Command> batch = mempool_.next_batch(cfg_.batch_size);
  Writer w;
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const Command& c : batch) w.bytes(c.data);
  Msg submit = make_msg(MsgType::kSubmit, 0, w.take());
  send(controller_, submit);
  // Next submission one ordering interval later (2Δ round trip).
  sched_.after(2 * cfg_.delta, "round_timer", [this] { submit_round(); });
}

void TrustedBaselineReplica::handle(NodeId from, const Msg& msg) {
  if (msg.type != MsgType::kOrdered || from != controller_ ||
      msg.author != controller_) {
    return;
  }
  Block b;
  try {
    b = Block::decode(msg.data);
  } catch (const SerdeError&) {
    return;
  }
  const BlockHash h = hash_block(b);
  if (!integrate_block(b, controller_)) return;
  // The control node is trusted: commit immediately.
  commit_chain(h);
}

}  // namespace eesmr::baselines
