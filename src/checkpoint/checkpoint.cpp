#include "src/checkpoint/checkpoint.hpp"

#include <algorithm>
#include <utility>

#include "src/common/serde.hpp"

namespace eesmr::checkpoint {

namespace {
/// Domain-separation tag for checkpoint signatures: keeps a checkpoint
/// preimage from ever colliding with a Msg preimage (whose first byte is
/// a MsgType) or a ClientRequest preimage (tag 0xC11E).
constexpr std::uint16_t kCheckpointTag = 0xC4E0;
}  // namespace

// ---------------------------------------------------------------------------
// Wire formats
// ---------------------------------------------------------------------------

Bytes CheckpointId::preimage() const {
  Writer w;
  w.u16(kCheckpointTag);
  w.u64(height);
  w.bytes(block);
  w.bytes(digest);
  return w.take();
}

Bytes CheckpointId::encode() const {
  Writer w;
  w.u64(height);
  w.bytes(block);
  w.bytes(digest);
  return w.take();
}

CheckpointId CheckpointId::decode(BytesView data) {
  Reader r(data);
  CheckpointId id;
  id.height = r.u64();
  id.block = r.bytes();
  id.digest = r.bytes();
  r.expect_done();
  return id;
}

Bytes CheckpointMsg::encode() const {
  Writer w;
  w.bytes(id.encode());
  w.bytes(sig);
  return w.take();
}

CheckpointMsg CheckpointMsg::decode(BytesView data) {
  Reader r(data);
  CheckpointMsg m;
  m.id = CheckpointId::decode(r.bytes());
  m.sig = r.bytes();
  r.expect_done();
  return m;
}

Bytes CheckpointCert::encode() const {
  Writer w;
  w.bytes(id.encode());
  encode_sigs(w);
  return w.take();
}

CheckpointCert CheckpointCert::decode(BytesView data) {
  Reader r(data);
  CheckpointCert c;
  c.id = CheckpointId::decode(r.bytes());
  c.decode_sigs(r);
  r.expect_done();
  return c;
}

Bytes SnapshotPayload::encode() const {
  Writer w;
  w.bytes(app_snapshot);
  w.u64(executed_cmds);
  w.u32(static_cast<std::uint32_t>(watermarks.size()));
  for (const auto& [client, req_id] : watermarks) {
    w.u32(client);
    w.u64(req_id);
  }
  w.u32(static_cast<std::uint32_t>(executed.size()));
  for (const ExecutedEntry& e : executed) {
    w.u32(e.client);
    w.u64(e.req_id);
    w.u64(e.height);
    w.bytes(e.result);
  }
  return w.take();
}

SnapshotPayload SnapshotPayload::decode(BytesView data) {
  Reader r(data);
  SnapshotPayload p;
  p.app_snapshot = r.bytes();
  p.executed_cmds = r.u64();
  const std::uint32_t n = r.u32();
  p.watermarks.reserve(std::min<std::size_t>(n, r.remaining() / 12 + 1));
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId client = r.u32();
    p.watermarks.emplace_back(client, r.u64());
  }
  const std::uint32_t m = r.u32();
  p.executed.reserve(std::min<std::size_t>(m, r.remaining() / 24 + 1));
  for (std::uint32_t i = 0; i < m; ++i) {
    ExecutedEntry e;
    e.client = r.u32();
    e.req_id = r.u64();
    e.height = r.u64();
    e.result = r.bytes();
    p.executed.push_back(std::move(e));
  }
  r.expect_done();
  return p;
}

// ---------------------------------------------------------------------------
// CheckpointManager
// ---------------------------------------------------------------------------

CheckpointManager::CheckpointManager(std::uint64_t interval,
                                     std::size_t quorum)
    : interval_(interval), quorum_(quorum), next_at_(interval) {}

bool CheckpointManager::due(std::uint64_t executed_cmds,
                            std::uint64_t height) const {
  return enabled() &&
         (executed_cmds >= next_at_ || height >= last_height_ + interval_);
}

void CheckpointManager::reschedule(std::uint64_t executed_cmds,
                                   std::uint64_t height) {
  if (!enabled()) return;
  // A block can overshoot the boundary; next_at_ stays the smallest
  // interval multiple strictly above the executed count, so every
  // replica (including one restored mid-stream) triggers identically.
  next_at_ = (executed_cmds / interval_ + 1) * interval_;
  last_height_ = height;
}

void CheckpointManager::record_local(const CheckpointId& id,
                                     std::uint64_t executed_cmds,
                                     Bytes payload, smr::Block block) {
  ++taken_;
  reschedule(executed_cmds, id.height);
  pending_.emplace(id.height,
                   Snapshot{id, std::move(payload), std::move(block)});
  while (pending_.size() > kMaxPending) pending_.erase(pending_.begin());
}

std::optional<CheckpointCert> CheckpointManager::add_signature(
    NodeId author, const CheckpointId& id, const Bytes& sig) {
  if (!enabled() || id.height <= stable_height()) return std::nullopt;
  // One live vote per author, at its LATEST height: a correct replica
  // signs monotonically increasing heights, so its newer vote obsoletes
  // the old one (a skipped checkpoint is subsumed by the next — they
  // are cumulative). This bounds the whole tally structure to one slot
  // per replica, so a Byzantine flood of distinct absurd heights can
  // occupy exactly one entry instead of wedging the map.
  const auto seat = author_height_.find(author);
  if (seat != author_height_.end()) {
    // Strictly newer heights only: a reordered delivery of the author's
    // OLDER vote must not evict its newer one (checkpoint messages are
    // never retransmitted, so an evicted vote is gone for good).
    if (id.height <= seat->second) return std::nullopt;
    drop_author_vote(author, seat->second);
  }
  author_height_[author] = id.height;
  auto& votes = tallies_[id.height][to_string(id.encode())];
  votes.emplace_back(author, sig);
  if (votes.size() < quorum_) return std::nullopt;

  CheckpointCert cert;
  cert.id = id;
  cert.sigs = votes;
  install(cert);
  return cert;
}

bool CheckpointManager::install_certified(const CheckpointCert& cert) {
  if (!enabled() || cert.id.height <= stable_height()) return false;
  install(cert);
  return true;
}

bool CheckpointManager::install_stable(const CheckpointCert& cert,
                                       std::uint64_t executed_cmds,
                                       Bytes payload, smr::Block block) {
  if (cert.id.height < stable_height()) return false;
  pending_.insert_or_assign(
      cert.id.height, Snapshot{cert.id, std::move(payload), std::move(block)});
  install(cert);
  reschedule(executed_cmds, cert.id.height);
  lwm_height_ = cert.id.height;
  return true;
}

void CheckpointManager::install(const CheckpointCert& cert) {
  const std::uint64_t height = cert.id.height;
  stable_ = cert;
  // Without a matching local snapshot nothing is served until one is
  // held: an older snapshot must not go out under the newer certificate.
  const auto pend = pending_.find(height);
  if (pend != pending_.end() && pend->second.id == cert.id) {
    serving_ = std::move(pend->second);
  } else {
    serving_.reset();
  }
  served_.clear();
  pending_.erase(pending_.begin(), pending_.upper_bound(height));
  gc_tallies_below(height);
}

void CheckpointManager::drop_author_vote(NodeId author,
                                         std::uint64_t height) {
  const auto tally = tallies_.find(height);
  if (tally == tallies_.end()) return;
  for (auto it = tally->second.begin(); it != tally->second.end();) {
    auto& votes = it->second;
    votes.erase(std::remove_if(votes.begin(), votes.end(),
                               [author](const auto& v) {
                                 return v.first == author;
                               }),
                votes.end());
    it = votes.empty() ? tally->second.erase(it) : std::next(it);
  }
  if (tally->second.empty()) tallies_.erase(tally);
}

void CheckpointManager::gc_tallies_below(std::uint64_t height) {
  tallies_.erase(tallies_.begin(), tallies_.upper_bound(height));
  for (auto it = author_height_.begin(); it != author_height_.end();) {
    it = it->second <= height ? author_height_.erase(it) : std::next(it);
  }
}

CheckpointManager::Step CheckpointManager::low_water_step(
    std::uint64_t committed) const {
  const std::uint64_t height = stable_height();
  if (height <= lwm_height_) return Step::kWait;
  if (height <= committed) return Step::kTruncate;
  if (height >= committed + kStateTransferGap) return Step::kTransfer;
  return Step::kWait;
}

std::uint64_t CheckpointManager::advance_low_water() {
  return std::exchange(lwm_height_, stable_height());
}

const CheckpointManager::Snapshot* CheckpointManager::serve_to(NodeId peer) {
  if (!serving_ || !served_.insert(peer).second) return nullptr;
  return &*serving_;
}

bool CheckpointManager::open_transfer(std::uint64_t height,
                                      sim::SimTime started) {
  if (transferring_ && transfer_height_ >= height) return false;
  if (!transferring_) {
    transfer_started_ = started;
    transfer_opened_height_ = height;
  }
  transferring_ = true;
  transfer_height_ = height;
  signer_idx_ = 0;
  return true;
}

NodeId CheckpointManager::next_transfer_peer(NodeId self) {
  if (!transferring_ || !stable_) return kNoNode;
  const std::vector<NodeId> signers = stable_->signer_list();
  for (std::size_t i = 0; i < signers.size(); ++i) {
    const NodeId candidate = signers[(signer_idx_ + i) % signers.size()];
    if (candidate != self) {
      signer_idx_ = (signer_idx_ + i + 1) % signers.size();
      return candidate;
    }
  }
  return kNoNode;
}

sim::Duration CheckpointManager::finish_transfer(sim::SimTime now) {
  transferring_ = false;
  ++transfers_;
  last_recovery_ = now - transfer_started_;
  return last_recovery_;
}

}  // namespace eesmr::checkpoint
