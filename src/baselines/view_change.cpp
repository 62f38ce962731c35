#include "src/baselines/view_change.hpp"

#include <algorithm>

namespace eesmr::baselines {

using smr::Block;
using smr::BlockHash;
using smr::Msg;
using smr::MsgType;

ViewChangeReplica::ViewChangeReplica(net::Network& net, smr::ReplicaConfig cfg,
                                     smr::ByzantineConfig byz,
                                     energy::Meter* meter,
                                     const char* propose_kind,
                                     const char* timer_kind)
    : ReplicaBase(net, std::move(cfg), meter),
      byz_(byz),
      propose_kind_(propose_kind),
      timer_kind_(timer_kind),
      progress_timer_(sched_) {
  branch_tip_ = smr::genesis_hash();
}

void ViewChangeReplica::start() {
  if (started_) return;
  started_ = true;
  v_cur_ = 1;
  vc_target_ = 1;
  phase_ = Phase::kSteady;
  reset_progress_timer(10 * cfg_.delta);
  if (is_leader()) propose();
}

// ---------------------------------------------------------------------------
// Steady state: proposals and commits
// ---------------------------------------------------------------------------

void ViewChangeReplica::propose() {
  if (crashed_ || phase_ != Phase::kSteady || !online() || !is_leader()) {
    return;
  }
  // Extend the proposal branch while it is above the committed tip.
  const BlockHash parent_hash =
      (branch_height_ > committed_height() &&
       store_.extends(branch_tip_, committed_tip()))
          ? branch_tip_
          : committed_tip();
  const Block* parent = store_.get(parent_hash);
  if (parent == nullptr) return;
  const std::uint64_t height = parent->height + 1;
  if (byz_.mode == smr::ByzantineMode::kCrash && byz_.trigger != 0 &&
      height >= byz_.trigger) {
    crashed_ = true;
    progress_timer_.cancel();
    router().set_forwarding(false);
    return;
  }

  auto build = [&](const std::string& tag) {
    Block b;
    b.parent = parent_hash;
    b.height = height;
    b.view = v_cur_;
    b.round = height;
    b.proposer = cfg_.id;
    b.cmds = mempool_.next_batch(cfg_.batch_size);
    if (!tag.empty()) b.cmds.push_back({to_bytes(tag)});
    return b;
  };
  if (byz_.equivocates() && height == byz_.trigger) {
    send_proposal(build("equivocation-A"));
    send_proposal(build("equivocation-B"));
    return;
  }
  send_proposal(build(""));
}

bool ViewChangeReplica::admit_proposal(NodeId from, const Msg& msg,
                                       const Block& b, const BlockHash& h) {
  auto [it, inserted] = seen_.try_emplace(b.height, h);
  if (!inserted && it->second != h) {
    (void)integrate_block(b, from);
    send_view_change(v_cur_ + 1);
    return false;
  }
  if (!integrate_block(b, from)) {
    retry_on_connect(msg);
    return false;
  }
  // The proposal must extend the committed branch.
  return store_.extends(h, committed_tip());
}

bool ViewChangeReplica::raise_branch(const BlockHash& h, const Block& b) {
  if (b.height <= branch_height_) return false;
  branch_tip_ = h;
  branch_height_ = b.height;
  return true;
}

void ViewChangeReplica::try_commit(const BlockHash& h) {
  if (!store_.contains(h) || !store_.extends(h, committed_tip())) {
    // Quorum reached before the chain connected (catch-up): finish when
    // sync delivers the ancestry.
    pending_commit_.insert(h);
    return;
  }
  commit_chain(h);
  reset_progress_timer(10 * cfg_.delta);
}

void ViewChangeReplica::on_commit(const Block& /*block*/) {
  // Chained self-clocking: the primary pipelines the next proposal as
  // soon as the previous block commits locally.
  if (!crashed_ && phase_ == Phase::kSteady && is_leader()) {
    sched_.after(0, propose_kind_, [this, v = v_cur_] {
      if (v == v_cur_ && phase_ == Phase::kSteady) propose();
    });
  }
}

// ---------------------------------------------------------------------------
// View change
// ---------------------------------------------------------------------------

void ViewChangeReplica::reset_progress_timer(sim::Duration d) {
  if (crashed_) return;
  progress_timer_.start(d, timer_kind_, [this] { on_progress_timeout(); });
}

void ViewChangeReplica::on_progress_timeout() {
  if (crashed_ || !online()) return;
  // First timeout leaves steady state for v+1; every further timeout
  // targets the next view (the PBFT exponential-backoff ladder,
  // flattened — the simulator's Δ is exact).
  send_view_change(std::max(vc_target_ + 1, v_cur_ + 1));
}

void ViewChangeReplica::on_restart() {
  if (crashed_ || !started_) return;
  reset_progress_timer(10 * cfg_.delta);
}

void ViewChangeReplica::send_view_change(std::uint64_t target) {
  if (crashed_ || target <= v_cur_) return;
  phase_ = Phase::kViewChange;
  vc_target_ = std::max(vc_target_, target);
  trace_instant("view", "blame", {{"view", exp::Json(v_cur_)},
                                  {"target", exp::Json(vc_target_)}});
  const Msg vc =
      make_msg(MsgType::kViewChange, vc_target_, 0, view_change_report());
  broadcast(vc);
  handle_view_change(vc);
  reset_progress_timer(10 * cfg_.delta);
}

void ViewChangeReplica::handle_view_change(const Msg& msg) {
  if (msg.view <= v_cur_ || vc_msgs_.add(msg.view, msg) == 0) return;
  // f+1 replicas already gave up on a lower view than ours: join them
  // (a correct replica is among the f+1).
  if (vc_msgs_.count(msg.view) >= cfg_.f + 1 && msg.view > vc_target_) {
    send_view_change(msg.view);
  }
  if (vc_msgs_.count(msg.view) >= quorum()) maybe_announce_new_view(msg.view);
}

void ViewChangeReplica::maybe_announce_new_view(std::uint64_t target) {
  if (leader_of(target) != cfg_.id || crashed_ || !online()) return;
  if (target <= v_cur_) return;  // announced, or passed
  const Bytes chosen = choose_new_view(vc_msgs_.votes(target));
  broadcast(make_msg(MsgType::kNewView, target, 0, chosen));
  (void)adopt_new_view(chosen, cfg_.id, /*own=*/true);
  enter_view(target);
  propose();
}

void ViewChangeReplica::handle_new_view(NodeId from, const Msg& msg) {
  if (msg.view <= v_cur_ || msg.author != leader_of(msg.view)) return;
  if (!adopt_new_view(msg.data, from, /*own=*/false)) return;
  enter_view(msg.view);
}

void ViewChangeReplica::enter_view(std::uint64_t view) {
  if (tracing()) {
    trace_instant("view", "new_view", {{"view", exp::Json(view)}});
  }
  v_cur_ = view;
  vc_target_ = view;
  phase_ = Phase::kSteady;
  seen_.clear();
  vc_msgs_.erase_if([&](std::uint64_t v) { return v <= view; });
  reset_progress_timer(10 * cfg_.delta);
  drain_buffered();
}

// ---------------------------------------------------------------------------
// Chain and checkpoint hooks
// ---------------------------------------------------------------------------

void ViewChangeReplica::on_chain_connected(const Block& block) {
  const BlockHash h = block.hash();
  if (pending_commit_.erase(h) > 0) try_commit(h);
}

void ViewChangeReplica::on_low_water(const Block& root) {
  seen_.erase(seen_.begin(), seen_.upper_bound(root.height));
  std::erase_if(pending_commit_, settled_at(root.height));
  std::erase_if(commit_sent_, settled_at(root.height));
  prune_tallies(root.height);
}

void ViewChangeReplica::on_state_transfer(const Block& root) {
  branch_tip_ = root.hash();
  branch_height_ = root.height;
  if (root.view > v_cur_) v_cur_ = root.view;
  vc_target_ = std::max(vc_target_, v_cur_);
  phase_ = Phase::kSteady;
  seen_.clear();
  commit_sent_.clear();
  pending_commit_.clear();
  reset_tallies();
  reset_progress_timer(12 * cfg_.delta);
  drain_buffered();
}

void ViewChangeReplica::handle(NodeId from, const Msg& msg) {
  if (crashed_) return;
  if (msg.type == MsgType::kViewChange) {
    handle_view_change(msg);
  } else if (msg.type == MsgType::kNewView) {
    handle_new_view(from, msg);
  } else {
    handle_steady(from, msg);
  }
}

}  // namespace eesmr::baselines
