#include "src/smr/execution_log.hpp"

namespace eesmr::smr {

const Bytes* ExecutionLog::find(NodeId client, std::uint64_t req_id) const {
  const auto it = executed_.find({client, req_id});
  return it != executed_.end() ? &it->second.result : nullptr;
}

bool ExecutionLog::at_or_below_frontier(NodeId client,
                                        std::uint64_t req_id) const {
  const auto it = frontier_.find(client);
  return it != frontier_.end() && req_id <= it->second;
}

const Bytes& ExecutionLog::record(NodeId client, std::uint64_t req_id,
                                  Bytes result, std::uint64_t height) {
  const auto entry =
      executed_.emplace(std::make_pair(client, req_id),
                        Entry{std::move(result), height}).first;
  auto& frontier = frontier_[client];
  while (executed_.count({client, frontier + 1}) > 0) ++frontier;
  return entry->second.result;
}

void ExecutionLog::gc_at_checkpoint(std::uint64_t height) {
  // The frontier is not raised here: raising it to the max GC'd id would
  // strand any lower id that was shed and never executed.
  std::erase_if(executed_,
                [this](const auto& kv) { return kv.second.height <= cut_; });
  cut_ = height;
}

checkpoint::SnapshotPayload ExecutionLog::snapshot() const {
  checkpoint::SnapshotPayload payload;
  payload.executed_cmds = executed_cmds_;
  payload.watermarks.assign(frontier_.begin(), frontier_.end());
  payload.executed.reserve(executed_.size());
  for (const auto& [key, entry] : executed_) {
    payload.executed.push_back(checkpoint::ExecutedEntry{
        key.first, key.second, entry.height, entry.result});
  }
  return payload;
}

void ExecutionLog::restore(const checkpoint::SnapshotPayload& payload,
                           std::uint64_t height) {
  executed_.clear();
  for (const checkpoint::ExecutedEntry& e : payload.executed) {
    executed_[{e.client, e.req_id}] = Entry{e.result, e.height};
  }
  frontier_.clear();
  for (const auto& [client, req_id] : payload.watermarks) {
    frontier_[client] = req_id;
  }
  executed_cmds_ = payload.executed_cmds;
  cut_ = height;
}

}  // namespace eesmr::smr
