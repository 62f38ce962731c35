#include "src/smr/mempool.hpp"

#include <algorithm>

#include "src/smr/request.hpp"

namespace eesmr::smr {

bool Mempool::submit(Command cmd) {
  if (committed_keys_.contains(BytesView(cmd.data))) return false;
  if (pending_keys_.contains(BytesView(cmd.data))) {
    return false;  // duplicate, not a drop
  }
  if (capacity_ > 0 && queue_.size() >= capacity_) {
    ++dropped_;  // admission control: shed fresh load when full
    return false;
  }
  std::optional<NodeId> client;
  if (const auto req = ClientRequest::decode(cmd.data)) {
    client = req->client;
    ++client_pending_[req->client];
  }
  pending_keys_.insert(cmd.data);
  queue_.push_back(Queued{std::move(cmd), client});
  return true;
}

std::vector<Command> Mempool::next_batch(std::size_t max_cmds) {
  std::vector<Command> batch;
  batch.reserve(max_cmds);
  for (std::size_t i = 0; i < std::min(max_cmds, queue_.size()); ++i) {
    batch.push_back(queue_[i].cmd);
  }
  while (batch.size() < max_cmds && synthetic_bytes_ > 0) {
    // Deterministic filler: counter stamped into a fixed-size payload.
    Command c;
    c.data.assign(synthetic_bytes_, 0x5a);
    stamp_counter_le(c.data, synth_counter_++);
    batch.push_back(std::move(c));
  }
  return batch;
}

void Mempool::remove_committed(const Block& block) {
  // One pass over the queue against a set of the block's commands,
  // instead of one queue scan per command. committed_keys_ holds only
  // tagged client requests: their (client, req_id) makes each one a
  // distinct operation whose retransmit must not be ordered twice. An
  // untagged command resubmitted after commit is a NEW operation with
  // identical bytes (e.g. a second "inc a") and stays orderable; this
  // also keeps synthetic filler from growing the set forever.
  // Classification uses the same full decode as the replica commit path
  // (a prefix sniff would disagree on bytes that merely start with the
  // tag, e.g. filler whose stamped counter hits 0xC11E).
  BytesSet<BytesView> block_keys;
  for (const Command& c : block.cmds) {
    if (block_keys.insert(BytesView(c.data)).second &&
        ClientRequest::decode(c.data).has_value()) {
      committed_keys_.insert(c.data);
    }
  }
  if (block_keys.empty()) return;
  const auto is_committed = [&](const Queued& q) {
    if (!block_keys.contains(BytesView(q.cmd.data))) return false;
    pending_keys_.erase(pending_keys_.find(BytesView(q.cmd.data)));
    if (q.client.has_value()) {
      const auto it = client_pending_.find(*q.client);
      if (it != client_pending_.end() && it->second > 0) --it->second;
    }
    return true;
  };
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(), is_committed),
               queue_.end());
}

}  // namespace eesmr::smr
