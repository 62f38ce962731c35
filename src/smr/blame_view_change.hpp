// The synchronous blame view change EESMR, Sync HotStuff and OptSync
// share, with the synchronous commit rule around it. A replica commits a
// block a fixed wait after voting for it, unless the view is blamed in
// between. A replica that sees no progress, or an equivocating leader,
// blames the view; f+1 blames form a blame certificate, broadcast by
// every replica that builds it. A replica holding one cancels its commit
// timers, waits Δ so that every correct replica quits too, and runs the
// protocol's quit-view exchange, which ends in the next view. Every path
// that raises the view resets the per-view state through enter_view.
// Subclasses supply the quit-view exchange, the start of a view (status
// or bootstrap) and their own per-view state.
#pragma once

#include <map>
#include <utility>

#include "src/smr/replica.hpp"

namespace eesmr::smr {

class BlameViewChangeReplica : public ReplicaBase {
 public:
  /// `commit_wait` is the commit rule's wait after a vote and
  /// `restart_wait` the blame timeout re-armed when the replica comes
  /// back online, both in multiples of Δ.
  BlameViewChangeReplica(net::Network& net, ReplicaConfig cfg,
                         ByzantineConfig byz, energy::Meter* meter,
                         unsigned commit_wait, unsigned restart_wait);

 protected:
  enum class Phase {
    kSteady,      // proposals, votes and commits flow
    kQuitDelay,   // blame quorum seen: Δ wait (EESMR Alg. 2 line 233)
    kQuitView,    // the quit-view exchange (EESMR lines 235-250)
    kQcExchange,  // EESMR: Δ commit-QC broadcast window (line 240)
    kBootstrap1,  // EESMR round 1: waiting for the new-view proposal
    kBootstrap2,  // EESMR round 2: waiting for the QC proposal
  };

  void on_state_transfer(const Block& root) override;
  void on_restart() override;

  // -- protocol hooks ---------------------------------------------------------
  /// Δ after a blame quorum, with the view-change span open: run the
  /// quit-view exchange, which ends in enter_new_view().
  virtual void quit_view() = 0;
  /// In the view just entered, unless crashed: send status or start the
  /// bootstrap, then re-arm the blame timer.
  virtual void begin_view() = 0;
  /// Clear the protocol's own per-view state (enter_view's last step).
  virtual void reset_view_state() = 0;
  /// After a commit timer committed its block.
  virtual void after_commit_timeout() {}
  /// The blame timer expired.
  virtual void on_blame_timer() { send_blame(); }
  /// Arguments of the "blame" trace event.
  [[nodiscard]] virtual obs::Tracer::Args blame_trace_args() const;

  // -- shared steps -----------------------------------------------------------
  /// Steady state or a bootstrap round: a blame quorum may start a view
  /// change.
  [[nodiscard]] bool can_start_view_change() const;
  void reset_blame_timer(sim::Duration d);
  /// Start the commit rule's wait for `h`, unless commits are disabled.
  void arm_commit_timer(const BlockHash& h);
  void cancel_commit_timers();
  /// Crash for good: cancel every timer and stop forwarding.
  void crash_stop();
  /// Blame the current view (once per view) and count the blame.
  void send_blame();
  /// Tally a current-view blame; at a quorum, broadcast the blame
  /// certificate and act on it.
  void handle_blame(const Msg& msg);
  /// A blame certificate for msg's view; a later view is adopted first.
  void handle_blame_qc(const Msg& msg);
  /// Stop committing in this view and quit it after Δ.
  void on_blame_quorum();
  /// Close the view-change span and begin the next view.
  void enter_new_view();
  /// Raise the view to `view` and reset all per-view state.
  void enter_view(std::uint64_t view);

  ByzantineConfig byz_;
  Phase phase_ = Phase::kSteady;
  bool started_ = false;
  bool crashed_ = false;
  /// Set after an equivocation or a blame quorum in this view: no further
  /// block may commit under the compromised leader.
  bool commits_disabled_ = false;
  sim::Timer blame_timer_;
  BlockHashMap<sim::EventId> commit_timers_;
  /// First proposal hash per round (EESMR) or height (Sync HotStuff) in
  /// the current view, with the signed proposal (equivocation evidence).
  std::map<std::uint64_t, std::pair<BlockHash, Msg>> seen_;
  /// Current-view blames, keyed by view.
  QuorumTally<std::uint64_t> blames_{cfg_.n};
  /// The new view's leader has proposed.
  bool nv_proposed_ = false;

 private:
  void commit_timeout(const BlockHash& h);

  unsigned commit_wait_;
  unsigned restart_wait_;
};

}  // namespace eesmr::smr
