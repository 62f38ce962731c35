#include "src/smr/blame_view_change.hpp"

namespace eesmr::smr {

BlameViewChangeReplica::BlameViewChangeReplica(
    net::Network& net, ReplicaConfig cfg, ByzantineConfig byz,
    energy::Meter* meter, unsigned commit_wait, unsigned restart_wait)
    : ReplicaBase(net, std::move(cfg), meter),
      byz_(byz),
      blame_timer_(sched_),
      commit_wait_(commit_wait),
      restart_wait_(restart_wait) {}

// ---------------------------------------------------------------------------
// Synchronous commit rule
// ---------------------------------------------------------------------------

void BlameViewChangeReplica::arm_commit_timer(const BlockHash& h) {
  if (commits_disabled_) return;
  const auto id = sched_.after(commit_wait_ * cfg_.delta, "commit_timer",
                               [this, h] { commit_timeout(h); });
  commit_timers_[h] = id;
}

void BlameViewChangeReplica::commit_timeout(const BlockHash& h) {
  commit_timers_.erase(h);
  // An offline replica (crash/recover, chase-the-leader) must not commit
  // on a timer armed before it went down: equivocation evidence or a view
  // change may have passed it by, so the commit could be a private fork.
  if (!online()) return;
  commit_chain(h);
  after_commit_timeout();
}

void BlameViewChangeReplica::cancel_commit_timers() {
  for (const auto& [h, id] : commit_timers_) sched_.cancel(id);
  commit_timers_.clear();
}

void BlameViewChangeReplica::crash_stop() {
  crashed_ = true;
  blame_timer_.cancel();
  cancel_commit_timers();
  router().set_forwarding(false);
}

// ---------------------------------------------------------------------------
// Blame and view change
// ---------------------------------------------------------------------------

bool BlameViewChangeReplica::can_start_view_change() const {
  return phase_ == Phase::kSteady || phase_ == Phase::kBootstrap1 ||
         phase_ == Phase::kBootstrap2;
}

void BlameViewChangeReplica::reset_blame_timer(sim::Duration d) {
  if (crashed_) return;
  blame_timer_.start(d, "blame_timer", [this] { on_blame_timer(); });
}

void BlameViewChangeReplica::on_restart() {
  if (crashed_ || !started_) return;
  reset_blame_timer(restart_wait_ * cfg_.delta);
}

obs::Tracer::Args BlameViewChangeReplica::blame_trace_args() const {
  return {{"view", exp::Json(v_cur_)}};
}

void BlameViewChangeReplica::send_blame() {
  if (crashed_ || blames_.has(v_cur_, cfg_.id)) return;
  trace_instant("view", "blame", blame_trace_args());
  const Msg blame = make_msg(MsgType::kBlame, 0, {});
  broadcast(blame);
  handle_blame(blame);
}

void BlameViewChangeReplica::handle_blame(const Msg& msg) {
  if (msg.view != v_cur_ || msg.round != 0 || !msg.data.empty()) return;
  if (blames_.add(msg.view, msg) < quorum() || !can_start_view_change()) return;
  const QuorumCert qc = make_cert(blames_.quorum_msgs(msg.view, quorum()));
  broadcast(make_msg(MsgType::kBlameQC, 0, qc.encode()));
  on_blame_quorum();
}

void BlameViewChangeReplica::handle_blame_qc(const Msg& msg) {
  if (msg.view < v_cur_ || !can_start_view_change()) return;
  const std::optional<QuorumCert> qc = QuorumCert::try_decode(msg.data);
  if (!qc || qc->type != MsgType::kBlame || qc->view != msg.view) return;
  if (!verify_qc(*qc, quorum())) return;
  if (msg.view > v_cur_) {
    // A valid certificate for a later view is transferable evidence on
    // its own: a lagged replica adopts that view and joins the quit in
    // flight. The quit-view exchange rebuilds what matters.
    trace_instant("view", "adopt_view", {{"from", exp::Json(v_cur_)},
                                         {"view", exp::Json(msg.view)}});
    enter_view(msg.view);
  }
  on_blame_quorum();
}

void BlameViewChangeReplica::on_blame_quorum() {
  if (!can_start_view_change()) return;
  cancel_commit_timers();
  commits_disabled_ = true;
  blame_timer_.cancel();
  phase_ = Phase::kQuitDelay;
  sched_.after(cfg_.delta, "view_change", [this] {
    // Opens the per-view view-change span; enter_new_view closes it.
    trace_begin("view", "view_change", v_cur_, {{"view", exp::Json(v_cur_)}});
    quit_view();
  });
}

void BlameViewChangeReplica::enter_new_view() {
  if (tracing()) {
    trace_end("view", "view_change", v_cur_,
              {{"new_view", exp::Json(v_cur_ + 1)}});
  }
  enter_view(v_cur_ + 1);
  if (crashed_) return;
  begin_view();
  drain_buffered();
}

void BlameViewChangeReplica::enter_view(std::uint64_t view) {
  v_cur_ = view;
  phase_ = Phase::kSteady;
  commits_disabled_ = false;
  seen_.clear();
  blames_.clear();
  nv_proposed_ = false;
  reset_view_state();
}

void BlameViewChangeReplica::on_state_transfer(const Block& root) {
  if (root.view > v_cur_) enter_view(root.view);
  phase_ = Phase::kSteady;
  commits_disabled_ = false;
  cancel_commit_timers();
  seen_.clear();
  reset_blame_timer(8 * cfg_.delta);
  drain_buffered();
}

}  // namespace eesmr::smr
